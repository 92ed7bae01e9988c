"""Exact rational matrices; the product oracle is a naive triple loop over
the Fraction entries of ``eval_oracle.entries``."""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcosets import cli, ratmat
from autcosets.errors import MAX_MATMUL_WORK, SizeLimitError
from autcosets.ratmat import RationalMatrix
from eval_oracle import entries, fraction_matrix

fraction_st = st.builds(
    Fraction, st.integers(-12, 12), st.integers(1, 9)
)


def square_st(dim):
    return st.lists(
        st.lists(fraction_st, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    )


def naive_matmul(a: RationalMatrix, b: RationalMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    ea, eb = entries(a), entries(b)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Fraction(0)
            for t in range(a.cols):
                acc += ea[i][t] * eb[t][j]
            out[i][j] = acc
    return out


@given(square_st(3), square_st(3))
def test_matmul_matches_naive_oracle(rows_a, rows_b):
    a = fraction_matrix(rows_a)
    b = fraction_matrix(rows_b)
    assert entries(a @ b) == tuple(tuple(r) for r in naive_matmul(a, b))


@given(square_st(2), square_st(2), square_st(2))
def test_matmul_associative(ra, rb, rc):
    a, b, c = fraction_matrix(ra), fraction_matrix(rb), fraction_matrix(rc)
    assert (a @ b) @ c == a @ (b @ c)


@given(square_st(3))
def test_identity_neutral(rows):
    a = fraction_matrix(rows)
    e = RationalMatrix.identity(3)
    assert a @ e == a
    assert e @ a == a


def test_entries_are_exact():
    a = fraction_matrix([[Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]])
    assert sum(entries(a)[0]) == 1  # no float drift


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
    for entry in ("1/2", True, np.bool_(True), 0.5):
        with pytest.raises(TypeError, match=f"got {type(entry).__name__}$"):
            RationalMatrix([[1, entry]])
    for den in (True, 2.0):
        with pytest.raises(ValueError, match=f"^denominator must be an integer, got {den!r}$"):
            RationalMatrix([[1, 2]], den)
    for dim in (True, 2.0):
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {dim!r}$"):
            RationalMatrix.identity(dim)
    for dim in (0, -1):
        with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
            RationalMatrix.identity(dim)
    for den in (0, -1):
        with pytest.raises(ValueError, match=f"^denominator must be >= 1, got {den}$"):
            RationalMatrix([[1, 2]], den)
    assert RationalMatrix.identity(np.int64(1)) == RationalMatrix([[1]])


def test_shape_mismatch():
    a = RationalMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_matmul_work_over_the_limit_is_refused_before_any_work(monkeypatch):
    def no_work(a, b):
        raise AssertionError("multiplied past the work limit")

    monkeypatch.setattr(ratmat, "int_matmul", no_work)
    # each factor's 3162^2 cells fit the point budget; their product does not
    # fit the work limit.  Broadcast views keep the test from allocating them.
    side = 3162
    ones = RationalMatrix._exact(np.broadcast_to(np.int64(1), (side, side)), 1, 1)
    with pytest.raises(SizeLimitError) as exc:
        ones @ ones
    assert str(exc.value) == (
        f"matmul {side}x{side} @ {side}x{side} needs {side ** 3} multiply-adds, "
        f"over the limit of {MAX_MATMUL_WORK}"
    )


def test_matmul_work_limit_counts_rows_inner_and_cols(monkeypatch):
    monkeypatch.setattr(ratmat, "MAX_MATMUL_WORK", 12)
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[1, 0, 1], [0, 1, 1]])
    assert (a @ b).num.tolist() == [[1, 2, 3], [3, 4, 7]]  # 2 x 2 x 3 = 12
    with pytest.raises(SizeLimitError, match="matmul 3x2 @ 2x3 needs 18 multiply-adds, over the limit of 12"):
        RationalMatrix(b.num.T) @ b


def test_matmul_over_the_work_limit_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(ratmat, "MAX_MATMUL_WORK", 1)
    assert cli.main(["verify", "--suite", "representation"]) == 1
    assert capsys.readouterr().err.startswith("error: matmul 2x2 @ 2x2 needs 8 multiply-adds")


def object_numerators(M: RationalMatrix) -> RationalMatrix:
    """M with its numerators held as Python ints: a form no library path
    keeps for numerators that fit in int64."""
    out = RationalMatrix.__new__(RationalMatrix)
    out.num, out.den, out.rows, out.cols = M.num.astype(object), M.den, M.rows, M.cols
    out._bound = M._bound
    return out


def test_a_matrix_gets_its_bound_from_one_scan_at_construction():
    bare = object_numerators(RationalMatrix([[1, -(2**40), 3], [4, 5, 6]]))
    prod = bare @ RationalMatrix([[1], [1], [1]])
    assert bare._bound == 2**40
    # the carried 2^40 * 1 * 3 proves the Python-int product fits int64
    assert prod == RationalMatrix([[4 - 2**40], [15]]) and prod.num.dtype == np.int64
    assert prod._bound == 3 * 2**40


def test_construction_scans_once_and_only_an_arithmetic_bound_is_rescanned(monkeypatch):
    scans = []
    scan = ratmat._absmax
    monkeypatch.setattr(ratmat, "_absmax", lambda a: scans.append(a) or scan(a))
    # the constructor's bound is its one exact scan, past int64 or not
    for x in (2**60, 2**70, -(2**70)):
        scans.clear()
        M = RationalMatrix([[x, 1]])
        assert len(scans) == 1 and M._bound == abs(x)
        assert M.num.dtype == (np.int64 if abs(x) <= 2**63 - 1 else object)
    # a bound from arithmetic past int64 may be loose: the scan decides
    scans.clear()
    M = RationalMatrix._exact(np.array([[4, -6]], dtype=object), 2, 2**70)
    assert len(scans) == 1 and M._bound == 3 and M.num.dtype == np.int64
    assert M == RationalMatrix([[2, -3]])


def test_equality_compares_den_shape_and_entries():
    wide = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    flat = RationalMatrix([[1, 2, 3, 4, 5, 6]])
    big = RationalMatrix([[2**70, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the same entries in another shape: no broadcast, no warning
        assert wide != RationalMatrix([[1, 2], [3, 4], [5, 6]])
        assert flat != RationalMatrix([[1], [2], [3], [4], [5], [6]])
        assert flat != RationalMatrix([[1, 2, 3, 4, 5, 6, 7]])
        assert wide != RationalMatrix([[1, 2, 3]])
        # the same entries held as int64 and as Python ints
        assert object_numerators(wide) == wide and wide == object_numerators(wide)
        assert object_numerators(wide) != RationalMatrix([[1, 2, 3], [4, 5, 7]])
        assert big == RationalMatrix(np.array([[2**70, 1]], dtype=object))
        assert big != RationalMatrix([[2**70 + 1, 1]]) and big != RationalMatrix([[1, 1]])
        # the same numerators over another denominator
        assert RationalMatrix([[1, 2]], 3) != RationalMatrix([[1, 2]], 5)
        assert RationalMatrix([[1, 2]], 3) == RationalMatrix([[2, 4]], 6)
        assert wide.__eq__([[1, 2, 3], [4, 5, 6]]) is NotImplemented


def test_doubly_stochastic():
    assert RationalMatrix([[1, 1], [1, 1]], 2).is_doubly_stochastic()
    assert RationalMatrix.identity(3).is_doubly_stochastic()
    assert not RationalMatrix([[1, 0], [1, 0]]).is_doubly_stochastic()
    assert not RationalMatrix([[3, -1], [-1, 3]], 2).is_doubly_stochastic()
    # rows and columns sum to 1, but an entry is negative (Python ints)
    assert not RationalMatrix([[2**64, 1 - 2**64], [1 - 2**64, 2**64]]).is_doubly_stochastic()
    assert not RationalMatrix([[1, 0]]).is_doubly_stochastic()


def assert_strings_match_fractions(num, den):
    mat = RationalMatrix(num, den)
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
    a = fraction_matrix(rows_a)
    b = fraction_matrix(rows_b)
    prod = a @ b
    assert entries(prod) == tuple(tuple(r) for r in naive_matmul(a, b))
    assert prod.to_strings() == [[str(x) for x in r] for r in naive_matmul(a, b)]


def test_int64_edge_of_the_product_bound():
    # 2^63 - 1 = 7 * 1317624576693539401: the bound is met exactly
    at_bound = RationalMatrix([[7]]) @ RationalMatrix([[(2**63 - 1) // 7]])
    assert entries(at_bound) == ((2**63 - 1,),)
    assert at_bound.num.dtype == np.int64
    # the bound is one past 2^63 - 1, and so is the product: int64 would wrap
    above = RationalMatrix([[1, 1]]) @ RationalMatrix([[2**62], [2**62]])
    assert entries(above) == ((2**63,),)
    assert above.num.dtype == object
    assert above.to_strings() == [[str(2**63)]]
    # over the bound with a small product: the result narrows back to int64
    cancel = RationalMatrix([[2**62, 2**62]]) @ RationalMatrix([[1], [-1]])
    assert cancel == RationalMatrix([[0]])
    assert cancel.num.dtype == np.int64


def test_row_sums_beyond_int64_stay_exact():
    big = 2**62
    wide = RationalMatrix([[big, big], [big, big]], 2 * big)
    assert wide.is_doubly_stochastic()
    over = RationalMatrix([[big, big + 1], [big + 1, big]], 2 * big + 1)
    assert over.num.dtype == np.int64
    assert over.is_doubly_stochastic()


def test_canonical_form():
    forms = [
        fraction_matrix([[Fraction(1, 2), Fraction(1, 4)], [0, Fraction(-3, 4)]]),
        RationalMatrix([[2, 1], [0, -3]], 4),
        RationalMatrix(np.array([[4, 2], [0, -6]], dtype=np.int64), 8),
        RationalMatrix(np.array([[2**70, 2**69], [0, -3 * 2**69]], dtype=object), 2**71),
        RationalMatrix(np.array([[6, 3], [0, -9]], dtype=np.int8), 12),
        RationalMatrix([[np.int64(4), np.int16(2)], [0, np.int32(-6)]], np.int64(8)),
        RationalMatrix(list(np.array([[4, 2], [0, -6]], dtype=np.int64)), 8),
        RationalMatrix([[1, Fraction(1, 2)], [0, Fraction(-3, 2)]], 2),
    ]
    first = forms[0]
    assert first.den == 4
    assert first.num.tolist() == [[2, 1], [0, -3]]
    for other in forms[1:]:
        assert other == first
        assert hash(other) == hash(first)
        assert other.to_strings() == first.to_strings() == [["1/2", "1/4"], ["0", "-3/4"]]
        assert other.den == first.den and other.num.dtype == np.int64
    zero = RationalMatrix([[0, 0]], 9)
    assert zero.den == 1 and zero == RationalMatrix([[0, 0]])


EXTREMES = (-(2**63), 2**63 - 1, 2**64 - 1)


@pytest.mark.parametrize(
    "dtype",
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64, object],
)
def test_constructor_dtype_rule(dtype):
    """Numerators of any integer dtype, and Python ints, are int64 exactly
    when every |x| fits, hold the nested-list matrix, and carry a bound."""
    if dtype is object:
        lo, hi = min(EXTREMES), max(EXTREMES)
    else:
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    extremes = sorted({lo, hi} | {x for x in EXTREMES if lo <= x <= hi})
    cases = [[[x, 1], [0, 2]] for x in extremes]
    cases += [[extremes, [0] * len(extremes)], [[1, 2], [0, 3]]]
    for rows in cases:
        for den in (1, 6):
            M = RationalMatrix(np.array(rows, dtype=dtype), den)
            assert M == RationalMatrix(rows, den)
            g = math.gcd(den, *(x for row in rows for x in row))
            assert M.den == den // g and M.num.tolist() == [[x // g for x in row] for row in rows]
            top = max(abs(x) // g for row in rows for x in row)
            assert M.num.dtype == (np.int64 if top <= 2**63 - 1 else object)
            assert M._bound >= top


def test_numerators_are_never_floats():
    a = fraction_matrix([[1, Fraction(1, 2)], [Fraction(-2, 3), 0]])
    big = RationalMatrix([[2**80]])
    made = [
        a,
        a @ a,
        RationalMatrix.identity(3),
        RationalMatrix([[1, 2]], 3),
        big,
        big @ big,
    ]
    for m in made:
        assert m.num.dtype == np.int64 or m.num.dtype == object
        assert all(isinstance(x, int) for x in m.num.ravel().tolist())
    assert not a.num.flags.writeable
    with pytest.raises(TypeError):
        RationalMatrix(np.array([[0.5, 1.0]]), 2)
    with pytest.raises(TypeError):
        RationalMatrix([[1.0]])
    with pytest.raises(TypeError):
        RationalMatrix(np.array([[True]]))
    with pytest.raises(TypeError):
        RationalMatrix(np.array([[1, 0.5]], dtype=object))
    with pytest.raises(ValueError, match="denominator must be an integer"):
        RationalMatrix([[1]], 2.0)
    with pytest.raises(ValueError):
        RationalMatrix([[1]], 0)
    with pytest.raises(ValueError):
        RationalMatrix([1, 2])


def test_repr_and_fraction_views():
    a = RationalMatrix([[3, 12], [0, -2]], 6)
    assert repr(a) == "RationalMatrix(2x2: 1/2 2; 0 -1/3)"
    assert entries(a)[1] == (Fraction(0), Fraction(-1, 3))
    assert entries(a) == ((Fraction(1, 2), Fraction(2)), (Fraction(0), Fraction(-1, 3)))


@given(st.integers(1, 4).flatmap(square_st))
def test_fraction_rows_round_trip_and_show_a_changed_entry(rows):
    a = RationalMatrix(rows)
    assert a == fraction_matrix(rows)
    assert a.data == entries(a)
    assert RationalMatrix(a.data) == a
    changed = [list(row) for row in a.data]
    changed[0][0] += 1
    b = RationalMatrix(changed)
    assert b != a and entries(b)[0][0] == entries(a)[0][0] + 1
    assert entries(b)[1:] == entries(a)[1:] and entries(b)[0][1:] == entries(a)[0][1:]


def test_matrix_verbs_never_import_fractions():
    """Matrices are integers over one denominator, so neither a compressed
    ``rep-matrix`` nor the representation suite loads ``fractions``."""
    g = '{"images": {"1": [[1,1],[2,1]]}, "inverse_images": {"1": [[1,1],[2,-1]]}}'
    for argv in (
        ["rep-matrix", "--group", "s3", "--m", "2", "--g", g, "--u", "0,1,2,3,4,5"],
        ["verify", "--suite", "representation"],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "autcosets", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "autcosets.ratmat" in imported  # the import log was read
        assert "fractions" not in imported
