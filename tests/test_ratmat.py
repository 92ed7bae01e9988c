"""Exact rational matrices; the product oracle is a naive triple loop."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcosets.ratmat import RationalMatrix

fraction_st = st.builds(
    Fraction, st.integers(-12, 12), st.integers(1, 9)
)


def square_st(dim):
    return st.lists(
        st.lists(fraction_st, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    )


def naive_matmul(a: RationalMatrix, b: RationalMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Fraction(0)
            for t in range(a.cols):
                acc += a.entry(i, t) * b.entry(t, j)
            out[i][j] = acc
    return out


@given(square_st(3), square_st(3))
def test_matmul_matches_naive_oracle(rows_a, rows_b):
    a = RationalMatrix(rows_a)
    b = RationalMatrix(rows_b)
    assert (a @ b).data == tuple(tuple(r) for r in naive_matmul(a, b))


@given(square_st(2), square_st(2), square_st(2))
def test_matmul_associative(ra, rb, rc):
    a, b, c = RationalMatrix(ra), RationalMatrix(rb), RationalMatrix(rc)
    assert (a @ b) @ c == a @ (b @ c)


@given(square_st(3))
def test_identity_neutral(rows):
    a = RationalMatrix(rows)
    e = RationalMatrix.identity(3)
    assert a @ e == a
    assert e @ a == a


def test_entries_are_exact():
    a = RationalMatrix([[Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]])
    assert sum(a.row(0)) == 1  # no float drift


def test_construction_accepts_ints_and_strings():
    a = RationalMatrix([[1, "1/2"], ["-3/4", 0]])
    assert a.entry(0, 1) == Fraction(1, 2)
    assert a.entry(1, 0) == Fraction(-3, 4)


@pytest.mark.parametrize("entry", [True, False])
def test_construction_rejects_bool_entries(entry):
    with pytest.raises(TypeError, match="got bool"):
        RationalMatrix([[entry, 1]])


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([[]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        RationalMatrix([[0.5]])
    with pytest.raises(ValueError):
        RationalMatrix([["nope"]])


def test_shape_mismatch():
    a = RationalMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_transpose():
    a = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().data == ((1, 4), (2, 5), (3, 6))


def test_doubly_stochastic():
    half = Fraction(1, 2)
    assert RationalMatrix([[half, half], [half, half]]).is_doubly_stochastic()
    assert RationalMatrix.identity(3).is_doubly_stochastic()
    assert not RationalMatrix([[1, 0], [1, 0]]).is_doubly_stochastic()
    assert not RationalMatrix([["3/2", "-1/2"], ["-1/2", "3/2"]]).is_doubly_stochastic()
    assert not RationalMatrix([[1, 0]]).is_doubly_stochastic()


def test_string_roundtrip():
    a = RationalMatrix([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(4), Fraction(0)]])
    strings = a.to_strings()
    assert strings == [["1/2", "-2/3"], ["4", "0"]]
    assert RationalMatrix(strings) == a


def assert_strings_match_fractions(num, den):
    mat = RationalMatrix.from_numerators(num, den)
    want = [[str(Fraction(int(p), den)) for p in row] for row in num]
    assert mat.to_strings() == want
    return mat


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 2**40),
    st.integers(0, 2**32),
)
def test_to_strings_matches_fraction_oracle(rows, cols, den, seed):
    """Negative, zero and repeated numerators, each cell formatted as
    str(Fraction(p, den)) would."""
    rng = np.random.default_rng(seed)
    num = rng.integers(-(2**62), 2**62, size=(rows, cols))
    num[rng.random((rows, cols)) < 0.3] = 0
    num[rng.random((rows, cols)) < 0.3] = den
    assert_strings_match_fractions(num, den)
    assert_strings_match_fractions(rng.integers(-3, 4, size=(rows, cols)), den)


def test_to_strings_of_one_cell_and_beyond_int64():
    for p, den in [(0, 7), (-6, 4), (5, 1), (-(2**63), 3)]:
        assert_strings_match_fractions(np.array([[p]], dtype=object), den)
    den = 2**65 + 1
    num = np.array(
        [[1, -(2**70), 0, 3 * den], [2**64 + 3, -1, -(2**70), 2**63]], dtype=object
    )
    mat = assert_strings_match_fractions(num, den)
    assert mat.den > 2**63 and mat.num.dtype == object


# --- integer numerators over one denominator ------------------------------

big_fraction_st = st.builds(
    Fraction,
    st.integers(2**40, 2**62) | st.integers(-(2**62), -(2**40)) | st.integers(-3, 3),
    st.integers(1, 2**20),
)


@given(
    st.lists(st.lists(big_fraction_st, min_size=3, max_size=3), min_size=2, max_size=2),
    st.lists(st.lists(big_fraction_st, min_size=2, max_size=2), min_size=3, max_size=3),
)
def test_large_numerators_fall_back_to_python_ints(rows_a, rows_b):
    a = RationalMatrix(rows_a)
    b = RationalMatrix(rows_b)
    prod = a @ b
    assert prod.data == tuple(tuple(r) for r in naive_matmul(a, b))
    assert prod.to_strings() == [[str(x) for x in r] for r in naive_matmul(a, b)]


def test_int64_edge_of_the_product_bound():
    # 2^63 - 1 = 7 * 1317624576693539401: the bound is met exactly
    at_bound = RationalMatrix([[7]]) @ RationalMatrix([[(2**63 - 1) // 7]])
    assert at_bound.entry(0, 0) == 2**63 - 1
    assert at_bound.num.dtype == np.int64
    # the bound is one past 2^63 - 1, and so is the product: int64 would wrap
    above = RationalMatrix([[1, 1]]) @ RationalMatrix([[2**62], [2**62]])
    assert above.entry(0, 0) == 2**63
    assert above.num.dtype == object
    assert above.to_strings() == [[str(2**63)]]
    # over the bound with a small product: the result narrows back to int64
    cancel = RationalMatrix([[2**62, 2**62]]) @ RationalMatrix([[1], [-1]])
    assert cancel == RationalMatrix([[0]])
    assert cancel.num.dtype == np.int64


def test_row_sums_beyond_int64_stay_exact():
    big = 2**62
    wide = RationalMatrix.from_numerators([[big, big], [big, big]], 2 * big)
    assert wide.is_doubly_stochastic()
    over = RationalMatrix.from_numerators([[big, big + 1], [big + 1, big]], 2 * big + 1)
    assert over.num.dtype == np.int64
    assert over.is_doubly_stochastic()


def test_canonical_form():
    forms = [
        RationalMatrix([["1/2", "1/4"], [0, "-3/4"]]),
        RationalMatrix.from_numerators([[2, 1], [0, -3]], 4),
        RationalMatrix.from_numerators(np.array([[4, 2], [0, -6]], dtype=np.int64), 8),
        RationalMatrix.from_numerators(np.array([[2**70, 2**69], [0, -3 * 2**69]], dtype=object), 2**71),
        RationalMatrix.from_numerators(np.array([[6, 3], [0, -9]], dtype=np.int8), 12),
    ]
    first = forms[0]
    assert first.den == 4
    assert first.num.tolist() == [[2, 1], [0, -3]]
    for other in forms[1:]:
        assert other == first
        assert hash(other) == hash(first)
        assert other.to_strings() == first.to_strings() == [["1/2", "1/4"], ["0", "-3/4"]]
        assert other.den == first.den and other.num.dtype == np.int64
    zero = RationalMatrix.from_numerators([[0, 0]], 9)
    assert zero.den == 1 and zero == RationalMatrix([[0, 0]])


def test_numerators_are_never_floats():
    a = RationalMatrix([[1, "1/2"], [Fraction(-2, 3), 0]])
    big = RationalMatrix([[2**80]])
    made = [
        a,
        a @ a,
        a.transpose(),
        RationalMatrix.identity(3),
        RationalMatrix.from_numerators([[1, 2]], 3),
        big,
        big @ big,
    ]
    for m in made:
        assert m.num.dtype == np.int64 or m.num.dtype == object
        assert all(isinstance(x, int) for x in m.num.ravel().tolist())
    assert not a.num.flags.writeable
    with pytest.raises(TypeError):
        RationalMatrix.from_numerators(np.array([[0.5, 1.0]]), 2)
    with pytest.raises(TypeError):
        RationalMatrix.from_numerators([[1.0]])
    with pytest.raises(TypeError):
        RationalMatrix.from_numerators(np.array([[True]]))
    with pytest.raises(TypeError):
        RationalMatrix.from_numerators(np.array([[1, 0.5]], dtype=object))
    with pytest.raises(TypeError):
        RationalMatrix.from_numerators([[1]], 2.0)
    with pytest.raises(ValueError):
        RationalMatrix.from_numerators([[1]], 0)
    with pytest.raises(ValueError):
        RationalMatrix.from_numerators([1, 2])


def test_repr_and_fraction_views():
    a = RationalMatrix([["1/2", 2], [0, "-1/3"]])
    assert repr(a) == "RationalMatrix(2x2: 1/2 2; 0 -1/3)"
    assert a.row(1) == (Fraction(0), Fraction(-1, 3))
    assert a.data == ((Fraction(1, 2), Fraction(2)), (Fraction(0), Fraction(-1, 3)))
