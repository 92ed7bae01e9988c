"""Verified automorphisms: construction, group laws, Nielsen moves, JSON."""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import autcosets
from autcosets import automorphisms, cli, words
from autcosets.automorphisms import (
    _automorphism_json,
    Automorphism,
    Endomorphism,
    InverseVerificationError,
    automorphism_from_dict,
    automorphism_to_dict,
    compose,
    compose_endomorphisms,
    identity_automorphism,
    invert,
    is_in_H,
    nielsen_invert,
    nielsen_right_mult,
    nielsen_swap,
    permutation_automorphism,
    random_automorphism,
    verify_inverse_pair,
)
from autcosets.cosets import coset_product, product_formula_direct, stability_witness, theta
from autcosets.ratmat import RationalMatrix


def rand_aut(seed: int, length: int, m_fix: int = 0, max_index: int = 5) -> Automorphism:
    return random_automorphism(m_fix, max_index, length, seed)


aut_st = st.builds(rand_aut, st.integers(0, 10_000), st.integers(0, 10))
perm_st = st.permutations(range(1, 6)).map(lambda p: dict(zip(range(1, 6), p)))


def assert_closed_result(r: Automorphism) -> None:
    """A closed operation's result, built without verification, is a true
    inverse pair in the normal form the verifying constructor produces."""
    assert verify_inverse_pair(r.fwd, r.inv)
    assert r == Automorphism(r.fwd.images, r.inv.images)


def test_endomorphism_normalizes():
    e = Endomorphism({1: [(1, 1)], 2: [(2, 1), (3, 1), (3, -1)], 3: [(1, 1)]})
    # trivial entries dropped, images reduced
    assert e.images == {3: ((1, 1),)}
    assert e.image(1) == ((1, 1),)
    assert e.image(2) == ((2, 1),)
    assert e.support_bound() == 3
    assert Endomorphism().is_identity()


def test_endomorphism_rejects_bad_keys():
    with pytest.raises(ValueError):
        Endomorphism({0: [(1, 1)]})


def test_endomorphism_names_the_image_of_a_bad_letter():
    # a key error names the key; a letter error gains the image it sits in
    with pytest.raises(ValueError, match=r"^generator index must be >= 1, got 0$"):
        Endomorphism({0: [(1, 1)]})
    with pytest.raises(ValueError, match=r"^letter sign must be \+1 or -1, got 2, in the image of x3$"):
        Endomorphism({1: [(2, 1)], 3: [(1, 2)]})
    with pytest.raises(ValueError, match=r"^generator index must be >= 1, got 0, in the image of x1$"):
        Automorphism({1: [(0, 1)]}, {})


@pytest.mark.parametrize("key", [1.7, 1.0, True, "1"])
def test_constructors_refuse_non_integer_keys(key):
    # a float key used to be truncated: {1.7: ...} became an image of x1
    with pytest.raises(ValueError, match=r"^generator index must be an integer, got"):
        Endomorphism({key: [(2, 1)]})
    with pytest.raises(ValueError, match="must be an integer"):
        Automorphism({key: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    with pytest.raises(ValueError, match="must be an integer"):
        Automorphism({1: [(1, 1), (2, 1)]}, {key: [(1, 1), (2, -1)]})


@pytest.mark.parametrize("letter", [(2.5, 1), (True, 1), (2, 1.0)])
def test_constructors_refuse_non_integer_letters(letter):
    # a float letter index used to load, with support_bound() == 2.5
    with pytest.raises(ValueError, match="must be an integer"):
        Endomorphism({1: [letter]})
    with pytest.raises(ValueError, match="must be an integer"):
        Automorphism({1: [(1, 1), letter]}, {1: [(1, 1), (2, -1)]})


def test_moves_refuse_non_integer_indices():
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            nielsen_invert(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            nielsen_right_mult(bad, 3)
        with pytest.raises(ValueError, match="must be an integer"):
            permutation_automorphism({bad: 3, 3: 1})


def test_compose_frozen_example():
    a = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    b = Automorphism({2: [(2, 1), (1, 1)]}, {2: [(2, 1), (1, -1)]})
    ab = compose(a, b)
    assert ab.fwd.images == {1: ((1, 1), (2, 1)), 2: ((2, 1), (1, 1), (2, 1))}
    # inverse carried along and verified
    assert compose(ab, ab.inverse()).is_identity()


def test_compose_order_is_second_acts_first():
    a = Automorphism({1: [(2, 1)], 2: [(1, 1)]}, {1: [(2, 1)], 2: [(1, 1)]})
    b = nielsen_invert(1)
    # (a . b)(x1) = a(b(x1)) = a(x1^-1) = x2^-1
    assert compose(a, b).image(1) == ((2, -1),)
    # (b . a)(x1) = b(a(x1)) = b(x2) = x2
    assert compose(b, a).image(1) == ((2, 1),)


def test_compose_takes_two_endomorphisms_and_refuses_a_mixed_pair():
    a, b = nielsen_right_mult(1, 2), nielsen_swap(1, 2)
    # a(b(x1)) = a(x2) = x2 and a(b(x2)) = a(x1) = x1 x2
    ab = compose(a.fwd, b.fwd)
    assert type(ab) is Endomorphism
    assert ab.images == {1: ((2, 1),), 2: ((1, 1), (2, 1))}
    assert ab == compose(a, b).fwd
    for left, right in ((a, b.fwd), (a.fwd, b), ("x1", a)):
        with pytest.raises(TypeError) as exc:
            compose(left, right)
        assert str(exc.value) == "compose expects two Endomorphisms or two Automorphisms"


def test_verification_rejects_wrong_inverse():
    with pytest.raises(InverseVerificationError):
        Automorphism({1: [(1, 1), (2, 1)]}, {})
    with pytest.raises(InverseVerificationError):
        Automorphism({1: [(1, 1), (2, 1)]}, {1: [(2, -1), (1, 1)]})
    # trust boundaries: Endomorphism arguments and JSON loads are verified too
    with pytest.raises(InverseVerificationError):
        Automorphism(Endomorphism({1: [(1, 1), (2, 1)]}), Endomorphism({1: [(2, -1), (1, 1)]}))
    with pytest.raises(InverseVerificationError):
        automorphism_from_dict(
            {"images": {"1": [[1, 1], [2, 1]]}, "inverse_images": {"1": [[2, -1], [1, 1]]}}
        )
    # x1 -> x1 x2 against x1 -> x2^-1 x1 already fails f∘g: f(g(x1)) = x2^-1 x1 x2
    assert not verify_inverse_pair(
        Endomorphism({1: [(1, 1), (2, 1)]}), Endomorphism({1: [(2, -1), (1, 1)]})
    )
    assert verify_inverse_pair(
        Endomorphism({1: [(1, 1), (2, 1)]}), Endomorphism({1: [(1, 1), (2, -1)]})
    )


def test_verification_cost_ignores_the_largest_index():
    # x1 <-> x_(10^9): the check composes the two moved generators only
    far = 10**9
    swap = {"1": [[far, 1]], str(far): [[1, 1]]}
    start = time.perf_counter()
    a = automorphism_from_dict({"images": swap, "inverse_images": swap})
    assert time.perf_counter() - start < 0.5
    assert a.support_bound() == far and compose(a, a).is_identity()
    # x1 -> x1 x_(10^9) is not inverted by x1 -> x_(10^9)^-1 x1
    with pytest.raises(InverseVerificationError):
        automorphism_from_dict(
            {"images": {"1": [[1, 1], [far, 1]]}, "inverse_images": {"1": [[far, -1], [1, 1]]}}
        )


def test_nielsen_moves_frozen():
    sw = nielsen_swap(1, 3)
    assert sw.image(1) == ((3, 1),) and sw.image(3) == ((1, 1),)
    assert sw.image(2) == ((2, 1),)
    inv = nielsen_invert(2)
    assert inv.image(2) == ((2, -1),)
    assert compose(inv, inv).is_identity()
    rm = nielsen_right_mult(1, 2)
    assert rm.image(1) == ((1, 1), (2, 1))
    assert rm.inv.image(1) == ((1, 1), (2, -1))
    with pytest.raises(ValueError):
        nielsen_swap(2, 2)
    with pytest.raises(ValueError):
        nielsen_right_mult(3, 3)
    for i, j in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="^generator index must be >= 1, got 0$"):
            nielsen_right_mult(i, j)
    with pytest.raises(ValueError):
        nielsen_invert(0)


def test_permutation_automorphism_refuses_a_generator_listed_twice():
    class Tag(int):
        """An int that equals only itself, so a dict keeps it beside 1."""

        __hash__ = object.__hash__

        def __eq__(self, other):
            return self is other

    mapping = {1: 2, Tag(1): 3, 2: 1, 3: 1}
    assert len(mapping) == 4
    with pytest.raises(ValueError, match="^duplicate image for generator 1$"):
        permutation_automorphism(mapping)


def test_permutation_automorphism():
    cyc = permutation_automorphism({1: 2, 2: 3, 3: 1})
    assert cyc.image(1) == ((2, 1),)
    assert cyc.inv.image(2) == ((1, 1),)
    assert compose(cyc, compose(cyc, cyc)).is_identity()
    # fixed points allowed and dropped
    assert permutation_automorphism({4: 4}).is_identity()
    with pytest.raises(ValueError):
        permutation_automorphism({1: 2})
    with pytest.raises(ValueError):
        permutation_automorphism({1: 2, 3: 2})
    with pytest.raises(ValueError):
        permutation_automorphism({0: 1, 1: 0})


def test_involutions_share_one_endomorphism():
    # an involution is its own inverse, so both halves are one map
    for a in [
        identity_automorphism(),
        nielsen_swap(2, 5),
        nielsen_invert(3),
        permutation_automorphism({1: 4, 4: 1, 2: 3, 3: 2, 5: 5}),
    ]:
        assert a.fwd is a.inv
        assert_closed_result(a)


def test_a_three_cycle_has_two_halves():
    cyc = permutation_automorphism({1: 2, 2: 3, 3: 1})
    assert cyc.fwd is not cyc.inv and cyc.fwd != cyc.inv
    assert verify_inverse_pair(cyc.fwd, cyc.inv) and verify_inverse_pair(cyc.inv, cyc.fwd)
    assert cyc.inv.images == {2: ((1, 1),), 3: ((2, 1),), 1: ((3, 1),)}


def _three_cycle(order):
    a, b, c = order[:3]
    return permutation_automorphism({a: b, b: c, c: a})


def _witness_half(m, n, p, half):
    e = identity_automorphism()
    return stability_witness(m, n, p, e, e)[half]


# every way the library builds a permutation: each carries a rename table
renaming_st = st.one_of(
    st.permutations(range(1, 7)).map(_three_cycle),
    st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True).map(
        lambda ij: nielsen_swap(*ij)
    ),
    st.builds(identity_automorphism),
    st.builds(theta, st.integers(0, 3), st.integers(0, 4)),
    st.builds(
        _witness_half, st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), st.sampled_from((0, 1))
    ),
)


@given(renaming_st, aut_st)
def test_renaming_composes_like_the_kernel(pi, x):
    # rebuilt by the public constructor, the same map has no rename table,
    # so it composes through the substitution kernel
    rebuilt = Automorphism(pi.fwd.images, pi.inv.images)
    assert rebuilt.fwd._rename is None and rebuilt.inv._rename is None
    assert pi.fwd._rename is not None and pi.inv._rename is not None
    # on the right, pi's inverse half is the left factor of the forced .inv
    for got, want in ((compose(pi, x), compose(rebuilt, x)), (compose(x, pi), compose(x, rebuilt))):
        assert got.fwd.images == want.fwd.images
        assert got.inv.images == want.inv.images
    # fixed letters pass through without being stored
    for half in (pi.fwd, pi.inv):
        assert len(half._rename) == 2 * len(half._codes)


def test_loaded_maps_carry_no_rename_table():
    swap = nielsen_swap(1, 2)
    for built in (
        Automorphism(swap.fwd.images, swap.inv.images),
        automorphism_from_dict(automorphism_to_dict(swap)),
    ):
        assert built == swap
        assert built.fwd._rename is None and built.inv._rename is None


@given(aut_st, aut_st, aut_st)
def test_composition_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(aut_st)
def test_inverse_laws(a):
    e = identity_automorphism()
    assert compose(a, invert(a)) == e
    assert compose(invert(a), a) == e
    assert invert(invert(a)) == a
    assert compose(a, e) == a
    assert compose(e, a) == a


@given(aut_st, aut_st)
def test_inverse_of_composite_reverses(a, b):
    assert invert(compose(a, b)) == compose(invert(b), invert(a))


@given(aut_st)
def test_support_bound_shared_by_inverse(a):
    # a and a^-1 always move the same top generator
    assert a.fwd.support_bound() == a.inv.support_bound()


@given(aut_st, aut_st)
def test_compose_support_bound(a, b):
    assert compose(a, b).support_bound() <= max(a.support_bound(), b.support_bound())


def test_random_automorphism_contract():
    a = random_automorphism(2, 6, 12, seed=7)
    b = random_automorphism(2, 6, 12, seed=7)
    assert a == b  # deterministic in the seed
    assert is_in_H(a, 2)
    assert a.support_bound() <= 6
    assert random_automorphism(0, 3, 0, seed=1).is_identity()
    assert random_automorphism(3, 4, 5, seed=2).support_bound() <= 4
    with pytest.raises(ValueError):
        random_automorphism(3, 3, 1, seed=0)
    with pytest.raises(ValueError):
        random_automorphism(0, 2, -1, seed=0)


def test_is_in_H():
    assert is_in_H(identity_automorphism(), 10)
    assert is_in_H(nielsen_swap(3, 4), 2)
    assert not is_in_H(nielsen_swap(2, 4), 2)
    assert is_in_H(rand_aut(3, 8, m_fix=2, max_index=5), 2)
    with pytest.raises(ValueError):
        is_in_H(identity_automorphism(), -1)


def test_json_roundtrip_frozen():
    a = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    doc = automorphism_to_dict(a)
    assert doc == {
        "images": {"1": [[1, 1], [2, 1]]},
        "inverse_images": {"1": [[1, 1], [2, -1]]},
    }
    assert automorphism_from_dict(doc) == a


@given(aut_st)
def test_json_roundtrip(a):
    assert automorphism_from_dict(automorphism_to_dict(a)) == a


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"images": {}},
        {"images": {}, "inverse_images": []},
        {"images": {"zero": []}, "inverse_images": {}},
        {"images": {"1": [[1]]}, "inverse_images": {}},
        {"images": {"1": [[0, 1]]}, "inverse_images": {}},
        {"images": {"1": [[1, 5]]}, "inverse_images": {}},
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        automorphism_from_dict(doc)


@pytest.mark.parametrize(
    "images, inverse_images",
    [
        # int() would read both letters as x1^-1 and load x1 -> x1^-1
        ({"1": [[1.7, -1]]}, {"1": [[True, -1]]}),
        ({"1": [[1, -1]]}, {"1": [[1, -1.0]]}),
        ({"1": [[True, -1]]}, {"1": [[1, -1]]}),
        ({"1": [[1, False]]}, {"1": [[1, -1]]}),
        ({"1": [["1", -1]]}, {"1": [[1, -1]]}),
        ({"1.0": [[1, -1]]}, {"1": [[1, -1]]}),
        ({True: [[1, -1]]}, {"1": [[1, -1]]}),
    ],
)
def test_json_accepts_only_real_ints(images, inverse_images):
    with pytest.raises(ValueError):
        automorphism_from_dict({"images": images, "inverse_images": inverse_images})


def test_json_names_a_key_over_the_digit_limit(int_digit_limit):
    # the refusal names the key, cut short, and its field
    key = "9" * (int_digit_limit + 700)
    doc = {"images": {"1": [[1, -1]]}, "inverse_images": {key: [[1, 1]]}}
    with pytest.raises(ValueError) as exc:
        automorphism_from_dict(doc)
    assert str(exc.value) == (
        f"generator key {key[:24]!r}... in inverse_images has {len(key)} digits, "
        f"over the limit of {int_digit_limit}"
    )


def test_json_int_keys_still_load():
    doc = {"images": {1: [[1, -1]]}, "inverse_images": {"1": [[1, -1]]}}
    assert automorphism_from_dict(doc) == nielsen_invert(1)


@pytest.mark.parametrize(
    "images",
    [
        # "01" used to overwrite "1", and the pair loaded as the identity
        {"1": [[1, -1]], "01": [[1, 1]]},
        {1: [[1, -1]], "1": [[1, -1]]},
        {"2": [[2, -1]], "002": [[2, -1]]},
    ],
)
def test_json_refuses_two_keys_for_one_generator(images):
    for doc in (
        {"images": images, "inverse_images": {}},
        {"images": {}, "inverse_images": images},
    ):
        with pytest.raises(ValueError, match="a second time"):
            automorphism_from_dict(doc)


# --- the JSON writer: json.dumps of automorphism_to_dict is its oracle -----------

BIG_INDEX = 10**4299  # 4,300 digits, the most the default digit limit converts


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# a composite's inverse is still deferred when the writer reads it first
writable_st = st.one_of(
    aut_st,
    st.builds(compose, aut_st, aut_st),
    perm_st.map(permutation_automorphism),
    st.just(identity_automorphism()),
    st.builds(compose, aut_st, st.just(nielsen_right_mult(1, BIG_INDEX))),
)


@given(writable_st)
def test_json_writer_matches_json_dumps_of_the_dict(a):
    text = _automorphism_json(a)
    assert text == compact(automorphism_to_dict(a))
    assert _automorphism_json(a) == text


def test_json_writer_frozen():
    assert _automorphism_json(identity_automorphism()) == '{"images":{},"inverse_images":{}}'
    g = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    assert _automorphism_json(g) == (
        '{"images":{"1":[[1,1],[2,1]]},"inverse_images":{"1":[[1,1],[2,-1]]}}'
    )
    c = compose(g, nielsen_swap(2, 10**12))
    assert type(c._inv) is tuple  # deferred until the writer reads it
    assert _automorphism_json(c) == (
        '{"images":{"1":[[1,1],[2,1]],"2":[[1000000000000,1]],"1000000000000":[[2,1]]},'
        '"inverse_images":{"1":[[1,1],[1000000000000,-1]],"2":[[1000000000000,1]],'
        '"1000000000000":[[2,1]]}}'
    )


def test_json_writer_refuses_what_the_dict_refuses(int_digit_limit):
    big = 10**int_digit_limit  # one digit over the limit
    edge = nielsen_right_mult(1, 10 ** (int_digit_limit - 1))
    assert _automorphism_json(edge) == compact(automorphism_to_dict(edge))
    for bad, error in [
        (nielsen_swap(1, big), ValueError),
        (nielsen_right_mult(1, big), ValueError),
        (compose(nielsen_invert(2), nielsen_swap(2, big)), ValueError),
        (None, TypeError),
        (nielsen_invert(1).fwd, TypeError),
    ]:
        with pytest.raises(error) as want:
            automorphism_to_dict(bad)
        with pytest.raises(error) as got:
            _automorphism_json(bad)
        assert str(got.value) == str(want.value)


def test_the_code_text_table_stays_within_its_bound(monkeypatch):
    table = automorphisms._CodeJson()
    monkeypatch.setattr(automorphisms, "_CODE_JSON", table)
    # a code of more than 9 digits is written but never kept
    b = nielsen_swap(1, 10**9)
    assert _automorphism_json(b) == compact(automorphism_to_dict(b))
    assert set(table) == {1}
    a = permutation_automorphism({i: i % 5000 + 1 for i in range(1, 5001)})
    for _ in range(2):
        assert _automorphism_json(a) == compact(automorphism_to_dict(a))
    assert len(table) == words._TABLE_SIZE


def test_equality_and_hash():
    a = nielsen_right_mult(1, 2)
    b = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    assert a == b and hash(a) == hash(b)
    assert a != nielsen_right_mult(2, 1)


@given(aut_st, aut_st, perm_st, st.integers(1, 5), st.integers(1, 5))
def test_closed_operations_preserve_the_inverse_pair(a, b, perm, i, j):
    # aut_st draws random_automorphism results, themselves closed
    results = [
        a,
        compose(a, b),
        compose(a, a.inverse()),
        a.inverse(),
        invert(compose(b, a)),
        identity_automorphism(),
        permutation_automorphism(perm),
        nielsen_invert(i),
    ]
    if i != j:
        results += [nielsen_swap(i, j), nielsen_right_mult(i, j)]
    for r in results:
        assert_closed_result(r)


def test_closed_constructor_is_private():
    # _closed_automorphism skips verification, so it must stay internal
    assert not any(name.startswith("_") for name in autcosets.__all__)


# the public names, by home module; each is listed once, in that module's __all__
PUBLIC = {
    "words": {
        "EMPTY", "Letter", "Word", "WordSyntaxError", "concat", "format_word", "invert_word",
        "parse_word", "reduce", "substitute",
    },
    "automorphisms": {
        "Automorphism", "Endomorphism", "InverseVerificationError", "automorphism_from_dict",
        "automorphism_to_dict", "compose", "identity_automorphism", "invert", "is_in_H",
        "nielsen_invert", "nielsen_right_mult", "nielsen_swap", "permutation_automorphism",
        "random_automorphism", "verify_inverse_pair",
    },
    "cosets": {
        "ConjClassRep", "DoubleCosetRep", "TupleRep", "block_size", "coset_product",
        "product_formula_direct", "stability_witness", "star_product", "star_vs_pair_check",
        "theta", "tuple_product", "witness_left", "witness_right",
    },
    "errors": {"DEFAULT_MAX_POINTS", "SizeLimitError", "SupportViolation"},
    "groups": {"FiniteGroup", "GroupAxiomError", "Subgroup", "builtin_group", "group_from_dict"},
    "ratmat": {"RationalMatrix"},
    "repengine": {
        "ActionMap", "action_map", "compress_to_invariants", "markov_matrix", "projection_matrix",
        "weak_limit_check",
    },
    "verify": {"CheckResult", "run_suites"},
}


def test_public_names_are_each_modules_export_list():
    names = autcosets.__all__
    assert len(names) == len(set(names)) == 55
    assert set(names) == set().union(*PUBLIC.values())
    star: dict = {}
    exec("from autcosets import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(names)
    for layer, public in PUBLIC.items():
        module = importlib.import_module(f"autcosets.{layer}")
        assert sorted(module.__all__) == sorted(public), layer
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(autcosets, name) is obj
            # a class or function is exported by the module that defines it
            if callable(obj) and not isinstance(obj, types.GenericAlias):
                assert obj.__module__ == module.__name__, name


# --- deferred inverses of composites ---------------------------------------
# compose defers the inverse half; reading .inv computes it.  Each fold step
# applies a Nielsen move on either side, composes with a random product or
# with the running composite itself (a shared factor), and may force the
# inverse early, so forcing meets both pending and already forced factors.

MOVES = [nielsen_swap(1, 2), nielsen_invert(2), nielsen_right_mult(3, 1), nielsen_swap(3, 4)]
step_st = st.tuples(
    st.sampled_from(["move_left", "move_right", "random", "self"]),
    st.integers(0, 10_000),
    st.booleans(),
)


def fold(steps):
    """The lazy composite of ``steps`` with its eagerly built inverse."""
    acc = identity_automorphism()
    inv = acc.inv
    doublings = 0
    for kind, seed, force in steps:
        if kind == "self" and doublings < 2:
            doublings += 1
            a, b = acc, acc
        elif kind == "random":
            a, b = acc, rand_aut(seed, 4)
        else:
            move = MOVES[seed % len(MOVES)]
            a, b = (move, acc) if kind == "move_left" else (acc, move)
        # the eager inverse of a factor: acc's is tracked, the others' are eager
        a_inv, b_inv = (inv if x is acc else x.inv for x in (a, b))
        acc = compose(a, b)
        inv = compose_endomorphisms(b_inv, a_inv)
        if force:
            assert acc.inv == inv
    return acc, inv


@given(st.lists(step_st, max_size=12))
def test_deferred_inverse_equals_the_eager_one(steps):
    acc, inv = fold(steps)
    assert acc.inv == inv
    assert verify_inverse_pair(acc.fwd, acc.inv)
    assert_closed_result(acc)


@given(aut_st, aut_st)
def test_deferred_inverse_of_one_composite(a, b):
    c = compose(a, b)
    assert c.inv == compose_endomorphisms(b.inv, a.inv)
    assert c.inv is c.inv  # forced once, then kept


@given(st.lists(step_st, max_size=10), st.integers(1, 5), st.integers(6, 10**12))
def test_support_bound_is_read_from_the_forward_map(steps, low, high):
    acc, _ = fold(steps)
    # a JSON-loaded pair whose top generator is far above the others
    doc = automorphism_to_dict(compose(acc, nielsen_swap(low, high)))
    for a in (acc, automorphism_from_dict(doc)):
        assert a.support_bound() == a.fwd.support_bound()
        assert a.support_bound() == max(a.fwd.support_bound(), a.inv.support_bound())


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_fold_forces_without_recursion(side):
    moves = [nielsen_swap(1, 2), nielsen_invert(2), nielsen_swap(2, 3), nielsen_invert(3)]
    acc = identity_automorphism()
    fwd = inv = acc.fwd
    for k in range(5_000):
        move = moves[k % len(moves)]
        if side == "left":
            acc = compose(acc, move)
            fwd, inv = compose_endomorphisms(fwd, move.fwd), compose_endomorphisms(move.inv, inv)
        else:
            acc = compose(move, acc)
            fwd, inv = compose_endomorphisms(move.fwd, fwd), compose_endomorphisms(inv, move.inv)
    assert acc.fwd == fwd
    assert acc.inv == inv
    assert verify_inverse_pair(acc.fwd, acc.inv)


@given(aut_st, aut_st, aut_st)
def test_equal_automorphisms_hash_equal(a, b, c):
    ab = compose(a, b)
    others = [
        compose(compose(a, c), compose(c.inverse(), b)),
        Automorphism(ab.fwd.images, ab.inv.images),
        invert(compose(invert(b), invert(a))),
    ]
    for other in others:
        assert other == ab and hash(other) == hash(ab)


def test_second_names_are_gone():
    for owner, names in [
        (Endomorphism, ("apply", "moved_generators", "__mul__")),
        (Automorphism, ("apply", "__mul__", "__invert__")),
        (autcosets, ("identity_endomorphism",)),
        (autcosets.automorphisms, ("identity_endomorphism",)),
        (RationalMatrix, ("__mul__", "is_square")),
        (cli, ("run",)),
    ]:
        for name in names:
            assert not hasattr(owner, name), name
    assert "identity_endomorphism" not in autcosets.__all__


# --- the letter boundary ----------------------------------------------------
# Maps compute on code words inside the library; letters appear only where
# they enter and leave.  A map built from letters and the same map built by
# composition must agree, and the letter views must be the ones pinned below.


def _boundary_text(a: Automorphism) -> str:
    """Every letter view of ``a``: repr, images, image(i) up to one past the
    support, and the compact JSON form."""
    parts = []
    for e in (a.fwd, a.inv):
        parts.append(repr(e))
        parts.append(repr(sorted(e.images.items())))
        parts.append(repr([e.image(i) for i in range(1, e.support_bound() + 2)]))
    parts.append(repr(a))
    parts.append(json.dumps(automorphism_to_dict(a), separators=(",", ":")))
    return "\n".join(parts)


def _boundary_family(seed: int) -> list[Automorphism]:
    g = random_automorphism(0, 5, 12, seed)
    h = random_automorphism(1, 6, 9, seed + 10)
    rep = coset_product(1, g, h)
    return [g, compose(g, h), rep.rep, product_formula_direct(1, rep.block, g, h)]


# SHA-256 of the joined _boundary_text of each family, as the letter-word
# implementation printed them
BOUNDARY_DIGESTS = {
    0: "3298f37df8d1bc0f3c094f06e189172606666be63b7a0b360755509551fa5a6b",
    1: "44bc05ac670726baa2c8874d66309169e5f0668c9cb5ef35f30497b204ffce0a",
    2: "182732a84a5b380e47bbbbb227a89cd02a5bb0f45422b7865f2ee1dee0dcec24",
    3: "81d2941f64f56afbdf1da3dadaec954fa009818d2be096df0d0fb25f5f8ea180",
}


@pytest.mark.parametrize("seed", sorted(BOUNDARY_DIGESTS))
def test_letter_views_are_pinned(seed):
    text = "\n".join(_boundary_text(a) for a in _boundary_family(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDARY_DIGESTS[seed]


def test_letter_views_of_a_small_map():
    a = random_automorphism(0, 3, 5, 1)
    assert repr(a) == (
        "Automorphism(Endomorphism(x1 -> x3^-1, x2 -> x2^-1, x3 -> x1), "
        "Endomorphism(x1 -> x3, x2 -> x2^-1, x3 -> x1^-1))"
    )
    assert a.fwd.images == {1: ((3, -1),), 2: ((2, -1),), 3: ((1, 1),)}
    assert a.image(3) == ((1, 1),) and a.image(4) == ((4, 1),)
    assert json.dumps(automorphism_to_dict(a), separators=(",", ":")) == (
        '{"images":{"1":[[3,-1]],"2":[[2,-1]],"3":[[1,1]]},'
        '"inverse_images":{"1":[[3,1]],"2":[[2,-1]],"3":[[1,-1]]}}'
    )
    # letters are plain (int, int) tuples, as the constructor makes them
    for word in a.fwd.images.values():
        for letter in word:
            assert type(letter) is tuple and list(map(type, letter)) == [int, int]


@given(aut_st, aut_st)
def test_letter_built_and_composed_maps_agree(a, b):
    ab = compose(a, b)
    for built in (
        Automorphism(ab.fwd.images, ab.inv.images),
        automorphism_from_dict(json.loads(json.dumps(automorphism_to_dict(ab)))),
    ):
        assert built == ab and hash(built) == hash(ab)
        assert built.fwd == ab.fwd and hash(built.fwd) == hash(ab.fwd)
        assert built.inv == ab.inv and hash(built.inv) == hash(ab.inv)
        assert repr(built) == repr(ab)
        assert automorphism_to_dict(built) == automorphism_to_dict(ab)


def test_verify_inverse_pair_refuses_non_endomorphisms():
    a = nielsen_right_mult(1, 2)
    need = "^verify_inverse_pair needs two Endomorphisms, got"
    with pytest.raises(TypeError, match=f"{need} dict and Endomorphism$"):
        verify_inverse_pair({1: ((1, 1), (2, 1))}, a.inv)
    with pytest.raises(TypeError, match=f"{need} Automorphism and Automorphism$"):
        verify_inverse_pair(a, a.inverse())
    with pytest.raises(TypeError, match="got Endomorphism and Automorphism$"):
        verify_inverse_pair(a.fwd, a.inverse())


def test_is_in_H_refuses_a_non_automorphism():
    cases = [(Endomorphism({2: [(2, -1)]}), "Endomorphism"), ({}, "dict"), (None, "NoneType")]
    for value, kind in cases:
        with pytest.raises(TypeError, match=f"^is_in_H needs an Automorphism, got {kind}$"):
            is_in_H(value, 1)


@pytest.mark.parametrize("value", ["x", Endomorphism({2: [(2, -1)]}), None])
def test_automorphism_to_dict_refuses_a_non_automorphism(value):
    kind = type(value).__name__
    with pytest.raises(TypeError, match=f"^automorphism_to_dict needs an Automorphism, got {kind}$"):
        automorphism_to_dict(value)


@pytest.mark.parametrize("value", [Endomorphism({2: [(2, -1)]}), 3, None])
def test_invert_refuses_a_non_automorphism(value):
    with pytest.raises(TypeError, match=f"^invert needs an Automorphism, got {type(value).__name__}$"):
        invert(value)
