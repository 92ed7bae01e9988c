"""Finite groups: table verification against brute-force axiom checks, the
builtin groups against their known structure."""

from __future__ import annotations

import itertools
import numbers
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcosets import groups
from autcosets.errors import DEFAULT_MAX_POINTS, SizeLimitError
from autcosets.groups import (
    FiniteGroup,
    GroupAxiomError,
    Subgroup,
    builtin_group,
    group_from_dict,
)
from eval_oracle import TupleIndex, group_to_dict


def brute_check_axioms(mul, identity):
    n = len(mul)
    for a in range(n):
        if mul[identity][a] != a or mul[a][identity] != a:
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
    for a in range(n):
        if not any(mul[a][b] == identity and mul[b][a] == identity for b in range(n)):
            return False
    return True


def element_orders(k: FiniteGroup):
    mul = k.mul_np.tolist()
    orders = []
    for a in range(k.order):
        acc = a
        n = 1
        while acc != k.identity:
            acc = mul[acc][a]
            n += 1
        orders.append(n)
    return sorted(orders)


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c6", "s3", "d8", "q8"])
def test_builtin_tables_satisfy_axioms(name):
    k = builtin_group(name)
    mul, inv = k.mul_np.tolist(), k.inv_np.tolist()
    assert brute_check_axioms(mul, k.identity)
    for a in range(k.order):
        assert mul[a][inv[a]] == k.identity


def test_builtin_structure():
    c4 = builtin_group("c4")
    assert c4.order == 4 and element_orders(c4) == [1, 2, 4, 4]

    s3 = builtin_group("s3")
    assert s3.order == 6
    assert element_orders(s3) == [1, 2, 2, 2, 3, 3]
    mul = s3.mul_np.tolist()
    assert any(mul[a][b] != mul[b][a] for a in range(6) for b in range(6))

    d8 = builtin_group("d8")
    assert d8.order == 8
    assert element_orders(d8) == [1, 2, 2, 2, 2, 2, 4, 4]
    mul = d8.mul_np.tolist()
    center = [a for a in range(8) if all(mul[a][b] == mul[b][a] for b in range(8))]
    assert len(center) == 2

    q8 = builtin_group("q8")
    assert q8.order == 8
    assert element_orders(q8) == [1, 2, 4, 4, 4, 4, 4, 4]  # unique element of order 2
    # i * j = k, j * i = -k in the documented ordering 1,-1,i,-i,j,-j,k,-k
    assert q8.mul_np.tolist()[2][4] == 6
    assert q8.mul_np.tolist()[4][2] == 7


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        builtin_group("e7")
    with pytest.raises(ValueError, match="^cyclic order must be >= 1, got 0$"):
        builtin_group("c0")


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_builtins_equal_the_checked_table(n):
    # c<n> is built by arithmetic without the axiom check
    k = builtin_group(f"c{n}")
    checked = FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)], 0, name=f"c{n}")
    assert k == checked
    assert (k.name, k.order, k.identity, k.inv_np.tolist()) == (
        checked.name, checked.order, checked.identity, checked.inv_np.tolist()
    )
    for arr, ref in ((k.mul_np, checked.mul_np), (k.inv_np, checked.inv_np)):
        assert arr.dtype == ref.dtype and np.array_equal(arr, ref) and not arr.flags.writeable


@pytest.mark.parametrize("name", ["s3", "d8", "q8"])
def test_fixed_builtins_share_one_verified_table(name, monkeypatch):
    first = builtin_group(name)
    built = []
    monkeypatch.setattr(groups, "_check_associative", lambda *args: built.append(args))
    again = builtin_group(f" {name.upper()}")
    assert built == []
    assert again == first and hash(again) == hash(first)
    assert (again.name, again.order, again.identity) == (first.name, first.order, first.identity)
    assert again.mul_np is first.mul_np and again.inv_np is first.inv_np
    assert not again.mul_np.flags.writeable and not again.inv_np.flags.writeable


@pytest.mark.parametrize("name", ["s3", "d8", "q8"])
def test_fixed_builtins_are_one_instance(name):
    assert builtin_group(name) is builtin_group(f" {name.upper()}")


@pytest.mark.parametrize("name", ["c\u00b3", "c\u0663"])  # superscript three, Arabic-Indic three
def test_builtin_cyclic_order_takes_ascii_digits_only(name):
    with pytest.raises(ValueError) as exc:
        builtin_group(name)
    assert str(exc.value) == f"unknown builtin group {name!r}"


def test_builtin_cyclic_order_over_the_digit_limit_is_named(int_digit_limit):
    digits = "9" * (int_digit_limit + 700)
    with pytest.raises(ValueError) as exc:
        builtin_group("c" + digits)
    assert str(exc.value) == (
        f"cyclic order in 'c99999999999999999999999'... has {len(digits)} digits, "
        f"over the limit of {int_digit_limit}"
    )


def test_cyclic_builtins_are_cheap_and_bounded():
    start = time.perf_counter()
    assert builtin_group("c800").order == 800
    assert time.perf_counter() - start < 0.1
    side = int(DEFAULT_MAX_POINTS**0.5)  # 3162: 3162^2 cells fit the budget
    cut = f"{str(10**30)[:24]}..."  # an order over 24 digits is cut in the refusal
    for n, shown, cells in ((side + 1, side + 1, (side + 1) ** 2), (10**30, cut, f"{cut}^2")):
        with pytest.raises(SizeLimitError) as exc:
            builtin_group(f"c{n}")
        assert str(exc.value) == (
            f"builtin group c{shown} needs {cells} table cells, "
            f"over the limit of {DEFAULT_MAX_POINTS}"
        )


@pytest.mark.parametrize(
    "unit, echo", [(5, "5"), (10**30, "100000000000000000000000...")], ids=["5", "10**30"]
)
def test_an_out_of_range_unit_is_echoed_clipped(unit, echo):
    with pytest.raises(GroupAxiomError) as exc:
        FiniteGroup([[0]], unit)
    assert str(exc.value) == f"unit {echo} out of range"


def test_a_unit_over_the_digit_limit_is_named_by_its_digits(int_digit_limit):
    with pytest.raises(GroupAxiomError) as exc:
        FiniteGroup([[0]], 10**5000)
    assert str(exc.value) == "unit <5001-digit int> out of range"


def test_table_validation_rejects_broken_tables():
    good = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    FiniteGroup(good)
    bad = [row[:] for row in good]
    bad[1][2] = 0  # breaks associativity/cancellation
    with pytest.raises(GroupAxiomError):
        FiniteGroup(bad)
    with pytest.raises(GroupAxiomError):
        FiniteGroup(good, identity=1)
    with pytest.raises(GroupAxiomError):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(GroupAxiomError):
        FiniteGroup([[0, 5], [1, 0]])
    with pytest.raises(GroupAxiomError):
        FiniteGroup([])
    # int32 would wrap 2**32 to 0; numpy keeps 2**70 as an object
    for big in (2**32, 2**70):
        with pytest.raises(GroupAxiomError, match="must be square over 0..n-1"):
            FiniteGroup([[big, 1], [1, 0]])
    assert FiniteGroup(np.array(good, dtype=np.uint8)) == FiniteGroup(good)


SMALL_GROUPS = {
    1: [[[0]]],
    2: [[[0, 1], [1, 0]]],
    3: [[[(a + b) % 3 for b in range(3)] for a in range(3)]],
    4: [
        [[(a + b) % 4 for b in range(4)] for a in range(4)],
        [[a ^ b for b in range(4)] for a in range(4)],
    ],
    5: [[[(a + b) % 5 for b in range(5)] for a in range(5)]],
    6: [
        [[(a + b) % 6 for b in range(6)] for a in range(6)],
        builtin_group("s3").mul_np.tolist(),
    ],
}


@st.composite
def small_tables(draw):
    """(table, unit) of order <= 6: a relabelled group, possibly with a few
    cells overwritten, or rows that are permutations around a unit (these
    always have an identity and often inverses, so they reach the
    associativity test)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        base = draw(st.sampled_from(SMALL_GROUPS[n]))
        label = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[label[a]][label[b]] = label[base[a][b]]
        for _ in range(draw(st.integers(0, 2))):
            a, b, v = (draw(st.integers(0, n - 1)) for _ in range(3))
            table[a][b] = v
        return table, label[0]
    unit = draw(st.integers(0, n - 1))
    table = []
    for a in range(n):
        if a == unit:
            table.append(list(range(n)))
            continue
        rest = iter(draw(st.permutations([x for x in range(n) if x != a])))
        table.append([a if b == unit else next(rest) for b in range(n)])
    return table, unit


@given(small_tables())
def test_table_check_agrees_with_brute_force(case):
    table, unit = case
    try:
        FiniteGroup(table, unit)
    except GroupAxiomError:
        accepted = False
    else:
        accepted = True
    assert accepted == brute_check_axioms(table, unit)


def test_non_associative_loop_with_inverses_is_rejected():
    # a Latin square with identity 0 in which every element is its own
    # inverse, yet (1*1)*2 = 2 while 1*(1*2) = 4
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert not brute_check_axioms(loop, 0)
    with pytest.raises(GroupAxiomError, match="not associative"):
        FiniteGroup(loop, 0)


def test_json_tables_are_checked_fast_and_bounded():
    n = 600
    doc = {"order": n, "mul": [[(a + b) % n for b in range(n)] for a in range(n)], "unit": 0}
    start = time.perf_counter()
    assert group_from_dict(doc) == builtin_group(f"c{n}")
    assert time.perf_counter() - start < 0.5
    assert group_from_dict({"mul": [[a ^ b for b in range(512)] for a in range(512)]}).order == 512
    side = int(DEFAULT_MAX_POINTS**0.5) + 1
    row = list(range(side))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as exc:
        group_from_dict({"mul": [row] * side})
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == (
        f"group of order {side} needs {side * side} table cells, "
        f"over the limit of {DEFAULT_MAX_POINTS}"
    )


def test_json_tables_are_stored_once():
    # the table is kept only as int32 arrays: 34.3 MiB for c3000, where a
    # tuple-of-tuples copy would add another 69 MiB
    n = 3000
    row = list(range(n))
    doc = {"mul": [row[a:] + row[:a] for a in range(n)]}
    tracemalloc.start()
    try:
        k = group_from_dict(doc)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert k.order == n and k.mul_np.dtype == np.int32
    assert retained < 45 * 2**20


def test_group_json_roundtrip():
    s3 = builtin_group("s3")
    doc = group_to_dict(s3)
    assert doc["order"] == 6 and doc["unit"] == 0
    again = group_from_dict(doc)
    assert again.mul_np.tolist() == s3.mul_np.tolist() and again.identity == s3.identity


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"order": 2},
        {"order": 3, "mul": [[0, 1], [1, 0]], "unit": 0},
        {"mul": [[0, 1], [1, 1]], "unit": 0},
        {"mul": "nope"},
    ],
)
def test_group_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        group_from_dict(doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"mul": [[0, 1], [1, 0.9]], "unit": 0.4}, "'mul' entry"),
        ({"mul": [[0, 1], [1, 0]], "unit": 0.4}, "'unit'"),
        ({"mul": [[0, 1], [1, 0]], "unit": False}, "'unit'"),
        ({"mul": [[0, 1], [1, 0]], "unit": "0"}, "'unit'"),
        ({"mul": [[True, False], [False, True]]}, "'mul' entry"),
        ({"mul": [[0, "1"], [1, 0]]}, "'mul' entry"),
        ({"order": "2", "mul": [[0, 1], [1, 0]]}, "'order'"),
        ({"order": 2.0, "mul": [[0, 1], [1, 0]]}, "'order'"),
        # numpy would read these bools among ints as 0 and 1
        ({"mul": [[0, True], [True, 0]]}, "'mul' entry"),
    ],
)
def test_group_json_accepts_only_real_ints(doc, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        group_from_dict(doc)


@pytest.mark.parametrize(
    "name, echo", [("A" * 3000, f"{'A' * 24!r}..."), ("a\nb", "'a\\nb'")], ids=["long", "newline"]
)
def test_group_json_refuses_a_name_no_one_line_refusal_could_print(name, echo):
    with pytest.raises(ValueError) as exc:
        group_from_dict({"mul": [[0, 1], [1, 0]], "name": name})
    assert str(exc.value) == f"group name {echo} must be at most 24 printable characters"


@pytest.mark.parametrize(
    "name, echo",
    [("a\nb" + "x" * 3000, f"{'a' + chr(10) + 'b' + 'x' * 21!r}..."), ("a\nb", "'a\\nb'"), (7, "7")],
    ids=["long", "newline", "no-string"],
)
def test_a_library_group_refuses_a_name_no_one_line_refusal_could_print(name, echo):
    with pytest.raises(ValueError) as exc:
        FiniteGroup([[0, 1], [1, 0]], name=name)
    assert str(exc.value) == f"group name {echo} must be at most 24 printable characters"


def test_group_json_keeps_a_short_name_and_ignores_one_that_is_no_string():
    assert group_from_dict({"mul": [[0, 1], [1, 0]], "name": "n" * 24}).name == "n" * 24
    assert group_from_dict({"mul": [[0, 1], [1, 0]], "name": 7}).name == "group2"


class Index:
    """An Integral type that numpy does not know."""

    def __init__(self, value: int):
        self.value = value

    def __int__(self):
        return self.value


numbers.Integral.register(Index)


def test_table_entries_must_be_integers():
    with pytest.raises(ValueError, match="'mul' entry must be an integer"):
        FiniteGroup([[0, 1], [1, 0.0]])
    with pytest.raises(ValueError, match="'unit' must be an integer"):
        FiniteGroup([[0, 1], [1, 0]], identity=True)
    # numpy integers are integers
    assert FiniteGroup(np.array([[0, 1], [1, 0]]), identity=np.int64(0)).mul_np.tolist() == [[0, 1], [1, 0]]
    # so are Integral types numpy keeps as objects
    assert FiniteGroup([[Index(0), Index(1)], [1, 0]]).mul_np.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "mul, echo",
    [
        ([[0, 1.5], [True, 0]], "1.5"),
        # 2**70 is an integer, only past 64 bits, so the bool after it is named
        ([[0, 2**70], [True, 0]], "True"),
        (np.array([[True, False], [False, True]]), repr(np.True_)),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), repr(np.float64(0.0))),
    ],
    ids=["float", "bool-after-a-long-int", "numpy-bool", "numpy-float"],
)
def test_a_table_refusal_names_the_first_entry_that_is_no_integer(mul, echo):
    with pytest.raises(ValueError) as exc:
        FiniteGroup(mul)
    assert str(exc.value) == f"'mul' entry must be an integer, got {echo}"


def test_subgroup_validation():
    s3 = builtin_group("s3")
    Subgroup(s3, [0, 3, 4])  # the 3-cycles with the unit
    assert Subgroup.trivial(s3).members == (s3.identity,)
    assert Subgroup.whole(s3).members == tuple(range(6))
    for members, message in [
        ([3, 4], "subgroup must contain the unit"),
        # 3*3 = 4 is missing too, but the inverse of a is checked before a*b
        ([0, 3], "subgroup not closed under inverse at 3"),
        ([0, 1, 2], "subgroup not closed under product at (1, 2)"),
        ([0, 9], "subgroup members out of range"),
        ([-1, 0], "subgroup members out of range"),
    ]:
        with pytest.raises(GroupAxiomError) as exc:
            Subgroup(s3, members)
        assert str(exc.value) == message
    # members are integers, not truncated floats or bools
    for members in ([0.2, 3.7, 4], [False], ["0"]):
        with pytest.raises(ValueError, match="^subgroup member must be an integer"):
            Subgroup(s3, members)
    assert Subgroup(s3, [np.int64(0), np.int32(3), 4]).members == (0, 3, 4)


def test_a_subgroup_is_no_container_and_both_reprs_name_the_group():
    # every caller reads .members
    assert not any(hasattr(Subgroup, name) for name in ("__iter__", "__len__", "__contains__"))
    s3 = builtin_group("s3")
    with pytest.raises(TypeError):
        Subgroup(s3, Subgroup.whole(s3))
    assert repr(s3) == "FiniteGroup('s3', order=6)"
    assert repr(Subgroup(s3, [0, 3, 4])) == "Subgroup('s3', (0, 3, 4))"


def test_tuple_index_roundtrip_and_order():
    ti = TupleIndex(3, 4)
    assert ti.n_points == 81
    for idx in range(81):
        point = ti.decode(idx)
        assert ti.encode(point) == idx
    # coordinate 1 is least significant
    assert ti.decode(1) == (1, 0, 0, 0)
    assert ti.decode(3) == (0, 1, 0, 0)
    assert ti.encode((2, 1, 0, 2)) == 2 + 1 * 3 + 2 * 27
    # exhaustive against explicit mixed-radix arithmetic
    for point in itertools.product(range(3), repeat=4):
        expected = sum(point[c] * 3**c for c in range(4))
        assert ti.encode(point) == expected
    assert ti.digit(ti.encode((2, 1, 0, 2)), 2) == 1


def test_tuple_index_validation():
    ti = TupleIndex(2, 3)
    with pytest.raises(ValueError):
        ti.encode((0, 1))
    with pytest.raises(ValueError):
        ti.encode((0, 1, 2))
    with pytest.raises(ValueError):
        ti.decode(8)
    with pytest.raises(ValueError):
        TupleIndex(0, 2)
    assert TupleIndex(5, 0).n_points == 1
    assert TupleIndex(5, 0).decode(0) == ()
