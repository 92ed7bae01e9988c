"""Block-stabilized products: cross-checked against the direct substitution
formula, and the witness/stability identities checked as exact automorphism
equalities."""

from __future__ import annotations

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcosets.automorphisms import (
    Automorphism,
    Endomorphism,
    InverseVerificationError,
    _closed_automorphism,
    _endomorphism,
    compose,
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
from autcosets.cosets import (
    MAX_BLOCK_SIZE,
    ConjClassRep,
    DoubleCosetRep,
    TupleRep,
    _block_swap,
    block_size,
    coset_product,
    product_formula_direct,
    stability_witness,
    star_product,
    star_vs_pair_check,
    theta,
    tuple_product,
    witness_left,
    witness_right,
)
from autcosets.errors import SizeLimitError, SupportViolation
from autcosets.groups import builtin_group
from autcosets.repengine import markov_matrix, projection_matrix, weak_limit_check
from autcosets.verify import (
    block_size_stable,
    direct_formula_agrees,
    left_witness_absorbs,
    right_witness_absorbs,
)
from autcosets.words import _encode
from coset_oracle import triple_product_disjoint


def rand_aut(seed, length, m_fix=0, max_index=4):
    return random_automorphism(m_fix, max_index, length, seed)


m_st = st.sampled_from((1, 2))
seed_st = st.integers(0, 10_000)
len_st = st.integers(0, 10)


def assert_closed_result(r: Automorphism) -> None:
    """A closed operation's result, built without verification, is a true
    inverse pair in the normal form the verifying constructor produces."""
    assert verify_inverse_pair(r.fwd, r.inv)
    assert r == Automorphism(r.fwd.images, r.inv.images)


def test_theta_frozen():
    assert theta(1, 1) == nielsen_swap(2, 3)
    assert theta(0, 2).fwd.images == {
        1: ((3, 1),),
        2: ((4, 1),),
        3: ((1, 1),),
        4: ((2, 1),),
    }
    assert theta(3, 0).is_identity()
    with pytest.raises(ValueError):
        theta(-1, 1)


@given(st.integers(0, 3), st.integers(0, 4))
def test_theta_is_an_involution_fixing_the_base(m, j):
    th = theta(m, j)
    assert is_in_H(th, m)
    assert compose(th, th).is_identity()
    assert th.inverse() == th
    assert th.support_bound() <= m + 2 * j


def test_block_size():
    e = identity_automorphism()
    assert block_size(2, e, e) == 0
    g = rand_aut(5, 6, max_index=5)
    assert block_size(1, g) == max(g.support_bound(), 1) - 1
    assert block_size(7, g) == 0  # support inside the base block
    with pytest.raises(ValueError):
        block_size(-1, e)


def test_block_size_over_the_limit_is_refused_before_theta(monkeypatch):
    m = 1
    at_limit = nielsen_swap(1, m + MAX_BLOCK_SIZE)
    assert block_size(m, at_limit) == MAX_BLOCK_SIZE
    far = nielsen_swap(1, 10**9)
    e = identity_automorphism()

    def no_theta(*args):
        raise AssertionError("theta built for an over-limit block")

    # the products take theta's swap from _block_swap itself
    monkeypatch.setattr("autcosets.cosets._block_swap", no_theta)
    products = [
        lambda: coset_product(m, far, e),
        lambda: star_product(m, e, far),
        lambda: tuple_product(m, (e, far), (e, e)),
    ]
    for product in products:
        with pytest.raises(SizeLimitError) as exc:
            product()
        assert str(exc.value) == (
            f"block size of the coset product needs {10**9 - m} generators per block, "
            f"over the limit of {MAX_BLOCK_SIZE}"
        )


def test_theta_and_stability_witness_are_bounded_like_block_size():
    e = identity_automorphism()
    refusals = [
        (lambda: theta(0, 10**9), "block swap theta needs 1000000000"),
        # the direct formula and the witnesses build on theta's swap
        (lambda: product_formula_direct(0, 10**9, e, e), "block swap theta needs 1000000000"),
        (lambda: witness_left(1, 10**9, e, e, e), "block swap theta needs 1000000000"),
        (lambda: witness_right(1, 10**9, e, e, e), "block swap theta needs 1000000000"),
        (lambda: stability_witness(1, 1, 10**9, e, e), "stability witness needs 1000000001"),
        (lambda: theta(2, MAX_BLOCK_SIZE + 1), f"block swap theta needs {MAX_BLOCK_SIZE + 1}"),
        (
            lambda: stability_witness(0, 1, MAX_BLOCK_SIZE, e, e),
            f"stability witness needs {MAX_BLOCK_SIZE + 1}",
        ),
    ]
    for build, head in refusals:
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as exc:
            build()
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == (
            f"{head} generators per block, over the limit of {MAX_BLOCK_SIZE}"
        )
    assert len(theta(0, MAX_BLOCK_SIZE).fwd.images) == 2 * MAX_BLOCK_SIZE
    pi, s = stability_witness(0, 1, MAX_BLOCK_SIZE - 1, e, e)
    assert is_in_H(pi, 0) and is_in_H(s, 0)


def test_rep_equality_ignores_block_field():
    g = rand_aut(1, 4)
    assert DoubleCosetRep(1, g, 3) == DoubleCosetRep(1, g, 5)
    assert ConjClassRep(1, g, 3) == ConjClassRep(1, g, 4)


def test_coset_product_frozen_example():
    g = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    h = Automorphism({2: [(2, 1), (1, 1)]}, {2: [(2, 1), (1, -1)]})
    prod = coset_product(1, g, h)
    assert prod.block == 1
    assert prod.rep.fwd.images == {
        1: ((1, 1), (2, 1)),
        2: ((3, 1), (1, 1), (2, 1)),
        3: ((2, 1),),
    }
    assert prod.rep.inv.images == {
        1: ((1, 1), (3, -1)),
        2: ((3, 1),),
        3: ((2, 1), (1, -1)),
    }


def test_coset_product_of_identities_is_identity():
    e = identity_automorphism()
    prod = coset_product(2, e, e)
    assert prod.rep.is_identity()
    assert prod.block == 0


@given(m_st, seed_st, len_st, seed_st, len_st)
def test_direct_formula_matches_composition_path(m, s1, l1, s2, l2):
    g = rand_aut(s1, l1)
    h = rand_aut(s2, l2)
    prod = coset_product(m, g, h)
    assert product_formula_direct(m, prod.block, g, h) == prod.rep


@given(seed_st, len_st)
def test_base_block_loops_follow_the_moved_generators_not_m(seed, length):
    """For maps supported below x3, is_in_H and the direct formula (n = 0)
    at a base block of 10^9 or 10^5000 generators return at once with the
    result at m = 3: the same images, keyed in ascending order."""
    g, h = rand_aut(seed, length, max_index=3), rand_aut(seed + 1, length, max_index=3)
    for k in range(5):
        assert is_in_H(g, k) == all(g.fwd.image(i) == ((i, 1),) for i in range(1, k + 1))
    want = product_formula_direct(3, 0, g, h)
    for m in (10**9, 10**5000):
        assert is_in_H(g, m) == is_in_H(g, 3)
        got = product_formula_direct(m, 0, g, h)
        assert got == want and got == compose(g, h)
        for got_map, want_map in ((got.fwd, want.fwd), (got.inv, want.inv)):
            assert list(got_map._codes) == list(want_map._codes) == sorted(want_map._codes)


def test_direct_formula_rejects_support_overflow():
    g = rand_aut(0, 6, max_index=5)  # support up to 5
    with pytest.raises(SupportViolation):
        product_formula_direct(1, 1, g, identity_automorphism())


def test_witness_left_frozen_example():
    g = Automorphism({1: [(1, 1), (2, 1)]}, {1: [(1, 1), (2, -1)]})
    r = Automorphism({2: [(2, 1), (1, 1)]}, {2: [(2, 1), (1, -1)]})
    r_box = witness_left(1, 1, r, g, identity_automorphism())
    assert r_box.fwd.images == {3: ((3, 1), (1, 1), (2, 1))}


@given(m_st, st.integers(1, 3), seed_st, len_st, seed_st, len_st, seed_st, len_st)
@settings(max_examples=40)
def test_witness_identities(m, n, s1, l1, s2, l2, s3, l3):
    g = rand_aut(s1, l1, max_index=m + n)
    h = rand_aut(s2, l2, max_index=m + n)
    r = rand_aut(s3, l3, m_fix=m, max_index=m + n)
    th = theta(m, n)
    base = compose(g, compose(th, h))

    r_box = witness_left(m, n, r, g, h)
    assert is_in_H(r_box, m + n)  # moves only the z block
    assert compose(g, compose(th, compose(r, h))) == compose(r_box, base)

    q_tri = witness_right(m, n, r, g, h)
    assert is_in_H(q_tri, m)
    assert compose(g, compose(r, compose(th, h))) == compose(base, invert(q_tri))


@pytest.mark.parametrize("m, n", [(0, 2), (1, 1), (1, 3), (2, 2)])
def test_the_shared_swap_keeps_its_images_through_the_substitution_patterns(m, n):
    """``_block_mapping`` starts from the images of the cached swap
    theta(m, n), and the kernel stores inverse words in the map it reads:
    the mapping is a copy, so theta still holds only its positive keys and
    equals a freshly built swap."""
    th = theta(m, n)
    fresh = _block_swap.__wrapped__(m, n, n)
    for seed in range(5):
        g, h = (rand_aut(seed + i, 10, max_index=m + n) for i in (0, 1))
        r = rand_aut(seed + 2, 10, m_fix=m, max_index=m + n)
        product_formula_direct(m, n, g, h)
        witness_left(m, n, r, g, h)
        assert theta(m, n) is th
        assert all(k > 0 for k in th.fwd._codes)
        assert th.fwd._codes == fresh.fwd._codes


def test_witness_rejects_bad_inputs():
    e = identity_automorphism()
    moved = nielsen_swap(1, 2)  # does not fix x1
    with pytest.raises(SupportViolation):
        witness_left(1, 1, moved, e, e)
    big = rand_aut(3, 6, m_fix=1, max_index=4)  # support beyond m+n=2
    with pytest.raises(SupportViolation):
        witness_left(1, 1, big, e, e)
    with pytest.raises(SupportViolation):
        witness_right(1, 1, moved, e, e)


def test_witness_right_rejects_factors_out_of_support():
    e = identity_automorphism()
    r = nielsen_invert(2)
    big = rand_aut(3, 6, m_fix=1, max_index=4)  # support beyond m+n=2
    assert big.support_bound() > 2
    with pytest.raises(SupportViolation):
        witness_right(1, 1, r, big, e)
    with pytest.raises(SupportViolation):
        witness_right(1, 1, r, e, big)


@given(m_st, st.integers(0, 2), seed_st, len_st, seed_st, len_st)
@settings(max_examples=40)
def test_stability_witness_conjugation_identity(m, p, s1, l1, s2, l2):
    g = rand_aut(s1, l1, max_index=m + 2)
    h = rand_aut(s2, l2, max_index=m + 2)
    n = block_size(m, g, h)
    pi, s = stability_witness(m, n, p, g, h)
    assert is_in_H(pi, m) and is_in_H(s, m)
    padded = compose(g, compose(theta(m, n + p), h))
    target = compose(g, compose(theta(m, n), h))
    assert compose(pi, compose(padded, compose(s, invert(pi)))) == target
    if p == 0:
        assert pi.is_identity() and s.is_identity()


def test_stability_witness_rejects_negative_padding():
    e = identity_automorphism()
    with pytest.raises(ValueError):
        stability_witness(1, 1, -1, e, e)


def test_star_product_structure():
    g = rand_aut(11, 5)
    h = rand_aut(12, 5)
    prod = star_product(1, g, h)
    n = block_size(1, g, h)
    th = theta(1, n)
    assert prod.rep == compose(g, compose(th, compose(h, th)))
    assert prod.block == n


@given(m_st, seed_st, len_st, seed_st, len_st)
@settings(max_examples=40)
def test_star_vs_pair(m, s1, l1, s2, l2):
    assert star_vs_pair_check(m, rand_aut(s1, l1), rand_aut(s2, l2))


def test_star_vs_pair_refuses_a_second_component_that_moves_the_base(monkeypatch):
    g, h = rand_aut(31, 4), rand_aut(32, 4)
    # a faulty tuple product whose second component moves x1
    monkeypatch.setattr(
        "autcosets.cosets.tuple_product", lambda m, gs, hs: TupleRep(m, (g, nielsen_swap(1, 2)), 1)
    )
    assert star_vs_pair_check(1, g, h) is False


def test_tuple_product_single_component_is_coset_product():
    g = rand_aut(21, 6)
    h = rand_aut(22, 6)
    single = tuple_product(1, (g,), (h,))
    pair = coset_product(1, g, h)
    assert single.reps == (pair.rep,)
    assert single.block == pair.block


def test_tuple_product_shares_one_block():
    e = identity_automorphism()
    g = rand_aut(31, 6, max_index=5)  # wide support
    prod = tuple_product(1, (g, e), (e, e))
    n = block_size(1, g)
    assert prod.block == n
    # the identity coordinate still picks up the shared block swap
    assert prod.reps[1] == theta(1, n)


def test_tuple_product_rejects_bad_shapes():
    e = identity_automorphism()
    with pytest.raises(ValueError):
        tuple_product(1, (e,), (e, e))
    with pytest.raises(ValueError):
        tuple_product(1, (), ())


_G, _H = nielsen_right_mult(1, 2), nielsen_swap(1, 2)

# (function, arguments, the position of each integer argument by name,
#  the floor of each integer argument by name)
INTEGER_ARGUMENTS = [
    (theta, (1, 2), {"m": 0, "j": 1}, {"m": 0, "j": 0}),
    (block_size, (1, _G, _H), {"m": 0}, {"m": 0}),
    (coset_product, (1, _G, _H), {"m": 0}, {"m": 0}),
    (star_product, (1, _G, _H), {"m": 0}, {"m": 0}),
    (tuple_product, (1, (_G,), (_H,)), {"m": 0}, {"m": 0}),
    (product_formula_direct, (1, 1, _G, _H), {"m": 0, "n": 1}, {"m": 0, "n": 0}),
    (witness_left, (1, 2, nielsen_swap(2, 3), _G, _H), {"m": 0, "n": 1}, {"m": 0, "n": 0}),
    (witness_right, (1, 2, nielsen_swap(2, 3), _G, _H), {"m": 0, "n": 1}, {"m": 0, "n": 0}),
    (stability_witness, (1, 1, 1, _G, _H), {"m": 0, "n": 1, "p": 2}, {"m": 0, "n": 0, "p": 0}),
    (is_in_H, (_G, 1), {"m": 1}, {"m": 0}),
    (Automorphism.image, (_G, 1), {"generator index": 1}, {"generator index": 1}),
]


def _with(args, position, value):
    return args[:position] + (value,) + args[position + 1:]


@pytest.mark.parametrize(
    "func, args, position, name",
    [
        pytest.param(func, args, position, name, id=f"{func.__name__}-{name}")
        for func, args, positions, _ in INTEGER_ARGUMENTS
        for name, position in positions.items()
    ],
)
@pytest.mark.parametrize("bad", [1.5, 1.0, True, "2"])
def test_integer_arguments_refuse_non_integers(func, args, position, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        func(*_with(args, position, bad))


@pytest.mark.parametrize(
    "func, args, positions",
    [pytest.param(*case[:3], id=case[0].__name__) for case in INTEGER_ARGUMENTS],
)
def test_integer_arguments_accept_numpy_integers(func, args, positions):
    as_numpy = args
    for position in positions.values():
        as_numpy = _with(as_numpy, position, np.int64(args[position]))
    got = func(*as_numpy)
    assert got == func(*args)
    if isinstance(got, (DoubleCosetRep, ConjClassRep, TupleRep)):
        assert type(got.m) is int


_FLOOR_CASES = [
    pytest.param(func, args, positions[name], name, floor, id=f"{func.__name__}-{name}")
    for func, args, positions, floors in INTEGER_ARGUMENTS
    for name, floor in floors.items()
]


@pytest.mark.parametrize("func, args, position, name, floor", _FLOOR_CASES)
def test_integer_arguments_refuse_values_below_their_floor(func, args, position, name, floor):
    with pytest.raises(ValueError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        func(*_with(args, position, floor - 1))


def _outcome(func, args):
    try:
        return func(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("func, args, position, name, floor", _FLOOR_CASES)
def test_integer_arguments_accept_numpy_integers_at_their_floor(func, args, position, name, floor):
    # where the call is valid at the floor, np.int64 gives the same result;
    # where another rule refuses it (a support bound), the same refusal
    want = _outcome(func, _with(args, position, floor))
    assert _outcome(func, _with(args, position, np.int64(floor))) == want
    assert "must be >=" not in str(want)


def test_triple_product_frozen_example():
    g = Automorphism({2: [(2, 1), (1, 1)]}, {2: [(2, 1), (1, -1)]})
    h = Automorphism({2: [(2, 1), (1, 1)]}, {2: [(2, 1), (1, -1)]})
    f = Automorphism({2: [(2, -1)]}, {2: [(2, -1)]})
    trip = triple_product_disjoint(1, g, h, f)
    # block 1: g renamed to the u block (x4), h to the z block (x3), f kept
    assert trip.fwd.images == {
        2: ((2, -1),),
        3: ((3, 1), (1, 1)),
        4: ((4, 1), (1, 1)),
    }


def test_invertible_remark_degenerate_product():
    # supports inside the base block: the product is plain composition
    for seed in range(8):
        g = rand_aut(seed, 6, m_fix=0, max_index=2)
        h = rand_aut(100 + seed, 6, m_fix=0, max_index=2)
        prod = coset_product(2, g, h)
        assert prod.block == 0
        assert prod.rep == compose(g, h)


@given(m_st, st.integers(0, 4), seed_st, len_st, seed_st, len_st, seed_st, len_st)
@settings(max_examples=40)
def test_closed_products_preserve_the_inverse_pair(m, j, s1, l1, s2, l2, s3, l3):
    g, h, f = rand_aut(s1, l1), rand_aut(s2, l2), rand_aut(s3, l3)
    results = [
        theta(m, j),
        coset_product(m, g, h).rep,
        star_product(m, g, h).rep,
        *tuple_product(m, (g, h), (h, f)).reps,
    ]
    for r in results:
        assert_closed_result(r)


# a pair that is not mutually inverse, smuggled past the verifying
# constructor: the boundaries that verify must still catch it
BROKEN = _closed_automorphism(_endomorphism({2: _encode(((2, 1), (3, 1)))}), _endomorphism({}))


def test_direct_formula_verifies_its_pair():
    with pytest.raises(InverseVerificationError):
        product_formula_direct(1, 2, BROKEN, identity_automorphism())


def test_witnesses_verify_their_pair():
    e = identity_automorphism()
    with pytest.raises(InverseVerificationError):
        witness_left(1, 2, BROKEN, e, e)
    with pytest.raises(InverseVerificationError):
        witness_right(1, 2, BROKEN, e, e)


# --- the coset laws shared by verify and the acceptance gate -------------
# Each law holds for every valid input, so each is shown to fail by
# replacing the construction it checks with a wrong one.

G, H, R = nielsen_right_mult(1, 2), nielsen_right_mult(2, 1), nielsen_invert(2)
LAWS = [
    (direct_formula_agrees, (1, G, H), "product_formula_direct", identity_automorphism()),
    (left_witness_absorbs, (1, 1, R, G, H), "witness_left", nielsen_invert(1)),
    (right_witness_absorbs, (1, 1, R, G, H), "witness_right", nielsen_invert(1)),
    (block_size_stable, (1, 1, G, H), "stability_witness",
     (identity_automorphism(), identity_automorphism())),
]


@pytest.mark.parametrize("law, args, target, wrong", LAWS)
def test_coset_laws_fail_on_a_wrong_construction(monkeypatch, law, args, target, wrong):
    assert law(*args)
    monkeypatch.setattr(f"autcosets.verify.{target}", lambda *_: wrong)
    assert law(*args) is False


# --- block swaps against hand-built oracles -------------------------------
# Independent references: each builds its images by hand, not through
# ``_block_swap``.

def oracle_theta(m, j):
    images = {}
    for k in range(m + 1, m + j + 1):
        images[k] = ((k + j, 1),)
        images[k + j] = ((k, 1),)
    return Automorphism(images, images)


def oracle_stability_swap(m, n, p):
    swap = {}
    for t in range(1, p + 1):
        swap[m + n + t] = m + 2 * n + p + t
        swap[m + 2 * n + p + t] = m + n + t
    return permutation_automorphism(swap)


def oracle_weak_limit_swap(m, m_cyl, j):
    pairs = range(m + 1, m + min(j, m_cyl) + 1)
    return permutation_automorphism({**{k: k + j for k in pairs}, **{k + j: k for k in pairs}})


def assert_same_images(got, want):
    assert got.fwd.images == want.fwd.images
    assert got.inv.images == want.inv.images


@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3), seed_st, len_st)
def test_block_swaps_match_hand_built_oracles(m, n, p, seed, length):
    assert_same_images(theta(m, n), oracle_theta(m, n))

    a = rand_aut(seed, length, max_index=m + n) if m + n else identity_automorphism()
    pi, s = stability_witness(m, n, p, a, a)
    assert_same_images(s, oracle_stability_swap(m, n, p))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5))
@settings(max_examples=30)
def test_weak_limit_swap_matches_hand_built_oracle(m, m_cyl, j):
    K = builtin_group("c2")
    seen = []

    def recording_markov(group, g, *args, **kwargs):
        seen.append(g)
        return markov_matrix(group, g, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("autcosets.repengine.markov_matrix", recording_markov)
        holds = weak_limit_check(K, m, m_cyl, j)
    want = oracle_weak_limit_swap(m, m_cyl, j)
    [swap] = seen
    assert_same_images(swap, want)
    level = m + m_cyl
    lhs = markov_matrix(K, want, level, truncation=m + j + m_cyl)
    assert holds == (lhs == projection_matrix(K, m, level))


@given(st.integers(0, 5), st.integers(0, 5))
def test_block_swap_of_size_zero_is_the_identity(base, offset):
    swap = _block_swap(base, 0, offset)
    assert swap.is_identity() and swap.inv.is_identity()


@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3))
def test_block_swaps_share_one_endomorphism(m, n, p):
    # every block swap is an involution: one map serves as both halves
    th = theta(m, n)
    assert th.fwd is th.inv
    swap = _block_swap(m, n, n + p)
    assert swap.fwd is swap.inv
    e = identity_automorphism()
    _, s = stability_witness(m, n, p, e, e)
    assert s.fwd is s.inv


@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3))
def test_block_swaps_are_built_once_per_shape(m, n, p):
    assert theta(m, n) is theta(m, n)
    e = identity_automorphism()
    _, s = stability_witness(m, n, p, e, e)
    assert s is _block_swap(m + n, p, n + p)
    assert _block_swap(1, 3, 3) == theta(1, 3)
    assert _block_swap.cache_info().maxsize == 32


def test_witness_left_names_itself_for_a_factor_of_the_wrong_type():
    # the type is checked before membership in H, which would name is_in_H
    e = identity_automorphism()
    with pytest.raises(TypeError, match="^witness_left needs an Automorphism, got str$"):
        witness_left(1, 2, "x", e, e)


# every public function here over its automorphism arguments, the rest fixed
AUTOMORPHISM_ARGUMENTS = {
    "block_size": lambda g, h: block_size(1, g, h),
    "coset_product": lambda g, h: coset_product(1, g, h),
    "star_product": lambda g, h: star_product(1, g, h),
    "tuple_product": lambda g, h: tuple_product(1, (g, g), (h, h)),
    "star_vs_pair_check": lambda g, h: star_vs_pair_check(1, g, h),
    "product_formula_direct": lambda g, h: product_formula_direct(1, 2, g, h),
    "witness_left": lambda r, g, h: witness_left(1, 2, r, g, h),
    "witness_right": lambda q, g, h: witness_right(1, 2, q, g, h),
    "stability_witness": lambda g, h: stability_witness(1, 2, 1, g, h),
}


@pytest.mark.parametrize(
    "bad", [None, "x", Endomorphism({2: [(2, -1)]})], ids=["None", "str", "Endomorphism"]
)
@pytest.mark.parametrize("name", AUTOMORPHISM_ARGUMENTS)
def test_cosets_refuse_a_non_automorphism_by_type(name, bad):
    call = AUTOMORPHISM_ARGUMENTS[name]
    arity = call.__code__.co_argcount
    for slot in range(arity):
        args = [identity_automorphism()] * arity
        args[slot] = bad
        with pytest.raises(TypeError, match=f"^\\w+ needs an Automorphism, got {type(bad).__name__}$"):
            call(*args)
