"""Representation engine.  Oracles: word evaluation over s3 is replayed with
honest permutation composition; matrices and point maps are recounted with
a pure-Python point loop; orbit compression is recomputed with Fraction sums
over explicit orbits; the weak-limit check is recomputed from cylinder
functions by explicit enumeration (``cylinder_oracle``)."""

from __future__ import annotations

import inspect
import itertools
import json
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import autcosets
import autcosets.cosets
import autcosets.groups
import autcosets.repengine

from autcosets import cli
from autcosets.automorphisms import (
    Endomorphism,
    _closed_automorphism,
    _endomorphism,
    automorphism_to_dict,
    compose,
    identity_automorphism,
    nielsen_invert,
    nielsen_right_mult,
    nielsen_swap,
    permutation_automorphism,
    random_automorphism,
)
from autcosets.cosets import coset_product, theta
from autcosets.errors import (
    MAX_ARRAY_ENTRIES, MAX_AXES, MAX_COORDINATES, SizeLimitError, SupportViolation,
)
from autcosets.groups import Subgroup, builtin_group, group_from_dict
from autcosets.ratmat import INT64_MAX, RationalMatrix, int_matmul
from autcosets.repengine import (
    _coordinate,
    _digit_sum,
    _grid_eval,
    _orbit_structure,
    _row_offsets,
    action_map,
    compress_to_invariants,
    markov_matrix,
    projection_matrix,
    weak_limit_check,
)
from autcosets.verify import (
    _bijective,
    compressed_product_agrees,
    matrix_product_agrees,
    product_matrices,
    run_suites,
)
from autcosets.words import _encode, parse_word
from cylinder_oracle import (
    CylinderFunction,
    cylinder_inner_product,
    cylinder_weak_limit,
    delta_cylinder,
    project_cylinder,
    translate_by_permutation,
)
from coset_oracle import triple_product_disjoint
from eval_oracle import (
    TupleIndex,
    entries,
    eval_word,
    fraction_matrix,
    group_to_dict,
    scan_int_matmul,
)

C2 = builtin_group("c2")
C3 = builtin_group("c3")
S3 = builtin_group("s3")
Q8 = builtin_group("q8")
D8 = builtin_group("d8")


def rand_aut(seed, length, m_fix=0, max_index=4):
    return random_automorphism(m_fix, max_index, length, seed)


# --- eval_word ----------------------------------------------------------

PERMS3 = sorted(itertools.permutations(range(3)))


def s3_eval_oracle(word, point):
    """Evaluate over s3 by composing honest permutations, bypassing the
    multiplication table."""
    acc = (0, 1, 2)
    for gen, sign in word:
        p = PERMS3[point[gen - 1]]
        if sign < 0:
            q = [0, 0, 0]
            for i in range(3):
                q[p[i]] = i
            p = tuple(q)
        acc = tuple(acc[p[i]] for i in range(3))
    return PERMS3.index(acc)


def test_eval_word_frozen():
    assert eval_word(C3, parse_word("x1 x2"), (1, 2)) == 0
    assert eval_word(C3, parse_word("x1^-1"), (1, 0)) == 2
    assert eval_word(C2, (), (0, 1)) == 0


def test_eval_word_matches_permutation_oracle():
    rng = np.random.RandomState(0)
    for _ in range(200):
        length = int(rng.randint(0, 8))
        word = tuple(
            (int(rng.randint(1, 4)), int(rng.choice((1, -1)))) for _ in range(length)
        )
        point = tuple(int(x) for x in rng.randint(0, 6, size=3))
        assert eval_word(S3, word, point) == s3_eval_oracle(word, point)


def test_eval_word_rejects_short_points():
    with pytest.raises(SupportViolation):
        eval_word(C2, parse_word("x3"), (0, 1))


# --- _grid_eval ---------------------------------------------------------

# the most coordinates drawn per group: at most 512 points
GRID_GROUPS = {"c1": 4, "c2": 4, "c3": 3, "s3": 3, "q8": 3}


@st.composite
def grid_cases(draw):
    name = draw(st.sampled_from(sorted(GRID_GROUPS)))
    n_coords = draw(st.integers(1, GRID_GROUPS[name]))
    letters = st.tuples(st.integers(1, n_coords), st.sampled_from((1, -1)))
    return name, n_coords, tuple(draw(st.lists(letters, min_size=1, max_size=6)))


@given(grid_cases())
@example(("s3", 3, ((2, 1),)))
@example(("q8", 3, ((3, -1),)))
@example(("c1", 4, ((4, -1),)))
@example(("q8", 3, ((1, -1), (3, 1), (1, 1))))
@example(("c3", 2, ((2, -1), (2, -1))))
def test_grid_eval_matches_eval_word_at_every_point(case):
    name, n_coords, word = case
    K = builtin_group(name)
    n = K.order
    grid = _grid_eval(K, _encode(word))
    assert not grid.flags.writeable
    assert grid.dtype == np.int32 and grid.ndim <= (n_coords if n > 1 else 0)
    # coordinate i runs along axis n_coords - i of the full grid
    full = np.broadcast_to(grid, (n,) * n_coords)
    for point in itertools.product(range(n), repeat=n_coords):
        assert full[point[::-1]] == eval_word(K, word, point)
    if len(word) == 1 and word[0][1] == 1:
        # a positive letter alone is its cached coordinate grid
        assert grid is _coordinate(n, word[0][0])
    for i in range(1, n_coords + 1):
        assert not _coordinate(n, i).flags.writeable


@pytest.mark.parametrize("name, m", [("c1", 3), ("c2", 0), ("c2", 3), ("c3", 2), ("q8", 1)])
def test_row_offsets_are_read_only_point_index_times_dim(name, m):
    n = builtin_group(name).order
    dim = n ** m
    rows = _row_offsets(n, m)
    assert rows is _row_offsets(n, m)
    assert not rows.flags.writeable
    assert rows.dtype == np.int64
    full = np.broadcast_to(rows, (n,) * m if n > 1 else ())
    assert full.ravel().tolist() == [p * dim for p in range(dim)]
    with pytest.raises(ValueError):
        rows[...] = 0


class ImageMap:
    """Has ``image`` and ``support_bound``, but is no Automorphism."""

    def image(self, i):
        return ((1, 1), (1, 1)) if i == 1 else ((i, 1),)

    def support_bound(self):
        return 1


@pytest.mark.parametrize("g", [Endomorphism({1: [(1, 1), (1, 1)]}), ImageMap()])
def test_point_engine_refuses_what_is_not_an_automorphism(g):
    # x1 -> x1^2 maps both points of c2 to the unit: 1 0; 1 0 is not stochastic
    kind = type(g).__name__
    with pytest.raises(TypeError, match=f"^markov_matrix needs an Automorphism, got {kind}$"):
        markov_matrix(C2, g, 1)
    with pytest.raises(TypeError, match=f"^action_map needs an Automorphism, got {kind}$"):
        action_map(C2, g, 1)


def test_library_built_matrices_skip_the_constructor(monkeypatch):
    built = []
    checked = RationalMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
    g = rand_aut(12, 6, max_index=3)
    t = markov_matrix(S3, g, 1)
    c = compress_to_invariants(S3, Subgroup.whole(S3), 1, t)
    results = [t, c, t @ t, projection_matrix(C3, 1, 2), RationalMatrix.identity(4)]
    assert built == []
    for mat in results:
        # each is already what the checking constructor makes of its parts
        assert not mat.num.flags.writeable
        assert mat.num.dtype == np.int64
        assert RationalMatrix(mat.num, mat.den) == mat
    assert len(built) == len(results)


# --- action_map ---------------------------------------------------------

def test_action_map_of_swap_permutes_coordinates():
    act = action_map(C2, nielsen_swap(1, 2), 2)
    ti = TupleIndex(2, 2)
    assert act.table[ti.encode((0, 1))] == ti.encode((1, 0))
    assert act.table[ti.encode((1, 1))] == ti.encode((1, 1))


def test_action_map_is_right_action():
    g = rand_aut(5, 6)
    h = rand_aut(6, 6)
    n = max(g.support_bound(), h.support_bound(), compose(g, h).support_bound())
    tg = action_map(C2, g, n).table
    th = action_map(C2, h, n).table
    tgh = action_map(C2, compose(g, h), n).table
    assert np.array_equal(tgh, th[tg])


def test_action_map_bijections():
    for seed in range(20):
        g = rand_aut(seed, 8)
        n = max(g.support_bound(), 1)
        table = action_map(C2, g, n).table
        assert len(np.unique(table)) == len(table)


def test_a_point_map_that_misses_a_point_is_refused():
    # x1 -> x1 x1 is an endomorphism of the free group, not an automorphism:
    # over c2 it sends both points to the unit, so the unit is hit twice;
    # action_map trusts the closed pair, and the law finds the miss
    square = _closed_automorphism(_endomorphism({1: _encode(((1, 1), (1, 1)))}), _endomorphism({}))
    assert not _bijective(C2, square, 1)
    assert not _bijective(C2, square, 3)
    assert _bijective(C2, nielsen_swap(1, 2), 2)


def test_the_bijection_law_lets_the_point_engine_refusals_through():
    with pytest.raises(SupportViolation):
        _bijective(C2, nielsen_swap(1, 2), 1)
    with pytest.raises(SizeLimitError):
        _bijective(C2, nielsen_swap(1, 2), 30)


def test_a_point_map_that_hits_a_point_twice_fails_the_law(monkeypatch):
    grid_code = autcosets.repengine._grid_code

    def collapsed(K, words):
        # only the law's maps on c2^4 send point 1's preimage onto point 0 too;
        # the matrix laws, at m = 1, read the true grid
        code = grid_code(K, words)
        return np.where(code == 1, 0, code) if len(words) == 4 else code

    monkeypatch.setattr(autcosets.repengine, "_grid_code", collapsed)
    failed = [r.name for r in run_suites("representation") if not r.passed]
    assert failed == ["representation.point_maps_bijective"]


def test_action_map_rejects_undersized_cube():
    g = rand_aut(3, 6, max_index=5)
    with pytest.raises(SupportViolation):
        action_map(C2, g, g.support_bound() - 1)


# --- markov_matrix ------------------------------------------------------

def brute_markov(K, g, m, n_coords=None):
    n = K.order
    cover = max(g.support_bound(), m)
    big = cover if n_coords is None else n_coords
    assert big >= cover
    dim = n**m
    counts = [[0] * dim for _ in range(dim)]
    for point in itertools.product(range(n), repeat=big):
        row = sum(point[c] * n**c for c in range(m))
        col = sum(
            eval_word(K, g.image(c + 1), point) * n**c for c in range(m)
        )
        counts[row][col] += 1
    den = n ** (big - m)
    return fraction_matrix([[Fraction(c, den) for c in r] for r in counts])


def test_markov_frozen_worked_value():
    g = nielsen_right_mult(1, 2)
    m = markov_matrix(C2, g, 1)
    assert m.to_strings() == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_markov_matches_brute_force():
    cases = [
        (C2, rand_aut(1, 7), 1),
        (C2, rand_aut(2, 9), 2),
        (C3, rand_aut(3, 7), 1),
        (C3, rand_aut(4, 5, max_index=3), 2),
        (S3, rand_aut(5, 6, max_index=3), 1),
        (S3, nielsen_invert(1), 1),
        (C2, identity_automorphism(), 2),
    ]
    for K, g, m in cases:
        assert markov_matrix(K, g, m) == brute_markov(K, g, m)


def test_markov_for_stabilizer_elements_is_identity():
    for K in (C2, C3, S3):
        for m in (1, 2):
            assert markov_matrix(K, theta(m, 2), m) == RationalMatrix.identity(K.order**m)
            h = rand_aut(9, 6, m_fix=m, max_index=m + 2)
            assert markov_matrix(K, h, m) == RationalMatrix.identity(K.order**m)


@given(
    st.sampled_from(["c2", "c3", "s3", "q8"]),
    st.integers(1, 2),
    st.integers(0, 10_000),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_markov_matrix_is_a_function_of_the_double_coset(name, m, seed, length, h_length):
    # p, q fix x_1..x_m, so their point maps fix the first m coordinates
    K = builtin_group(name)
    g = rand_aut(seed, length, max_index=m + 2)
    p = random_automorphism(m, m + 3, h_length, seed + 1)
    q = random_automorphism(m, m + 3, h_length, seed + 2)
    assert markov_matrix(K, compose(p, compose(g, q)), m) == markov_matrix(K, g, m)


def test_markov_truncation_invariance():
    g = rand_aut(11, 7)
    base = markov_matrix(C3, g, 1)
    deeper = markov_matrix(C3, g, 1, truncation=g.support_bound() + 2)
    assert base == deeper
    with pytest.raises(SupportViolation):
        markov_matrix(C3, g, 1, truncation=g.support_bound() - 1)


def test_markov_homomorphism_small():
    for seed in range(5):
        g = rand_aut(seed, 6)
        h = rand_aut(50 + seed, 6)
        prod = coset_product(1, g, h)
        assert markov_matrix(C2, prod.rep, 1) == markov_matrix(C2, g, 1) @ markov_matrix(C2, h, 1)


def test_markov_m_zero_is_trivial():
    g = rand_aut(13, 6)
    assert markov_matrix(C2, g, 0) == RationalMatrix([[1]])


def test_markov_doubly_stochastic():
    for seed in range(6):
        g = rand_aut(seed, 8)
        assert markov_matrix(C3, g, 1).is_doubly_stochastic()


# --- grid kernel: only the coordinates an image reads are enumerated -----

def skipping_aut():
    """x1 -> x1 x4, x2 -> x2 x4, x4 -> x4^-1: support 4, and the images of
    x1 and x2 skip x3."""
    return compose(nielsen_right_mult(1, 4), compose(nielsen_right_mult(2, 4), nielsen_invert(4)))


@pytest.mark.parametrize(
    "K, m, extra",
    [(C3, 0, 2), (C2, 1, 3), (C3, 1, 1), (S3, 1, 1), (C2, 2, 3), (S3, 2, 1), (Q8, 2, 1), (D8, 2, 1)],
)
def test_markov_matches_brute_force_above_the_support(K, m, extra):
    g = skipping_aut()
    assert all(gen != 3 for i in (1, 2) for gen, _ in g.image(i))
    for aut in (g, rand_aut(40 + m, 6, max_index=4)):
        truncation = max(aut.support_bound(), m) + extra
        assert markov_matrix(K, aut, m, truncation=truncation) == brute_markov(K, aut, m, truncation)


@pytest.mark.parametrize("K, n_coords", [(C2, 6), (C3, 4), (S3, 4)])
def test_action_map_matches_eval_word_point_by_point(K, n_coords):
    ti = TupleIndex(K.order, n_coords)
    for g in (skipping_aut(), rand_aut(31, 8, max_index=4), identity_automorphism()):
        table = action_map(K, g, n_coords).table
        assert len(table) == ti.n_points
        for idx in range(ti.n_points):
            point = ti.decode(idx)
            image = tuple(eval_word(K, g.image(i), point) for i in range(1, n_coords + 1))
            assert table[idx] == ti.encode(image)


# the most coordinates drawn per group for a point map: at most 512 points
MAP_GROUPS = {"c2": 8, "c3": 5, "s3": 3, "q8": 3, "d8": 3}


@st.composite
def map_cases(draw):
    name = draw(st.sampled_from(sorted(MAP_GROUPS)))
    n_coords = draw(st.integers(2, MAP_GROUPS[name]))
    return name, n_coords, draw(st.integers(0, 10_000)), draw(st.integers(1, 12))


@given(map_cases())
@example(("q8", 3, 2, 6))
@example(("d8", 3, 1, 6))
@example(("c2", 8, 2, 12))
def test_point_maps_with_images_out_of_coordinate_order_match_eval_word(case):
    # g(x_i) = r(x_(N+1-i)): x_1's image often reads the highest coordinate,
    # so the digit sum adds its terms in an order other than the index order
    name, n_coords, seed, length = case
    K = builtin_group(name)
    reverse = permutation_automorphism({i: n_coords + 1 - i for i in range(1, n_coords + 1)})
    g = compose(rand_aut(seed, length, max_index=n_coords), reverse)
    reads = [max(gen for gen, _ in g.image(i)) for i in range(1, n_coords + 1)]
    assume(reads != sorted(reads))
    table = action_map(K, g, n_coords).table
    assert table.dtype == np.int64 and not table.flags.writeable and table.flags.c_contiguous
    ti = TupleIndex(K.order, n_coords)
    assert len(table) == ti.n_points
    for idx in range(ti.n_points):
        point = ti.decode(idx)
        image = tuple(eval_word(K, g.image(i), point) for i in range(1, n_coords + 1))
        assert table[idx] == ti.encode(image)


def test_point_codes_leave_the_cached_coordinate_grids_unchanged():
    before = {(n, i): _coordinate(n, i).copy() for n in (1, 2, 8) for i in range(1, 5)}
    g = compose(rand_aut(7, 10, max_index=4), nielsen_swap(1, 4))
    for K in (builtin_group("c1"), C2, Q8):
        action_map(K, g, 4)
        markov_matrix(K, g, 2)
        compress_to_invariants(K, Subgroup.whole(K), 1, RationalMatrix.identity(K.order))
        # a cached grid passed as a digit comes back as a new int64 array
        grid = _coordinate(K.order, 3)
        code = _digit_sum(K.order, [grid])
        assert code is not grid and code.dtype == np.int64 and code.tolist() == grid.tolist()
    for (n, i), grid in before.items():
        assert not _coordinate(n, i).flags.writeable
        assert np.array_equal(_coordinate(n, i), grid)


@given(
    st.sampled_from(["c2", "c3", "s3"]),
    st.integers(0, 2),
    st.integers(0, 10_000),
    st.integers(0, 8),
    st.integers(1, 3),
)
def test_markov_truncation_invariance_property(name, m, seed, length, extra):
    K = builtin_group(name)
    g = rand_aut(seed, length, max_index=3)
    base = markov_matrix(K, g, m)
    assert markov_matrix(K, g, m, truncation=max(g.support_bound(), m) + extra) == base


def test_order_one_group_past_the_numpy_axis_limit():
    # numpy arrays have at most 64 axes; c1 has one point at any truncation
    C1 = builtin_group("c1")
    g = rand_aut(3, 8, max_index=5)
    for m in (0, 1, 3):
        assert markov_matrix(C1, g, m, truncation=70) == RationalMatrix.identity(1)
    assert markov_matrix(C1, theta(1, 70), 2) == RationalMatrix.identity(1)  # reads x72
    assert action_map(C1, g, 70).table.tolist() == [0]
    assert action_map(C1, theta(1, 70), 141).table.tolist() == [0]
    assert weak_limit_check(C1, 1, 2, 70)  # reads x72 and x73


# --- guardrail ----------------------------------------------------------

def test_order_one_group_is_bounded_by_its_coordinates():
    # c1 has one point at any size, so the point budget cannot bound it
    C1 = builtin_group("c1")
    e = identity_automorphism()
    refusals = [
        (lambda: markov_matrix(C1, e, MAX_COORDINATES + 1), "averaging over c1^10001"),
        (lambda: markov_matrix(C1, e, 0, truncation=MAX_COORDINATES + 1), "averaging over c1^10001"),
        (lambda: action_map(C1, e, MAX_COORDINATES + 1), "action on c1^10001"),
        (lambda: weak_limit_check(C1, 0, 5000, 5001), "weak limit over c1^10001"),
    ]
    for build, layer in refusals:
        with pytest.raises(SizeLimitError) as exc:
            build()
        assert str(exc.value) == f"{layer} needs 10001 coordinates, over the limit of 10000"
    one = RationalMatrix.identity(1)
    assert markov_matrix(C1, e, MAX_COORDINATES) == one
    assert markov_matrix(C1, e, 0, truncation=MAX_COORDINATES) == one
    assert action_map(C1, e, MAX_COORDINATES).table.tolist() == [0]
    assert weak_limit_check(C1, 0, 5000, 5000)


def test_a_group_of_order_two_or_more_is_bounded_by_the_axes_numpy_allows():
    # coordinate i lies on axis -i, and numpy 1.x allows 32 axes; only a
    # budget raised to 2^33 or more reaches the limit
    assert MAX_AXES == 32
    with pytest.raises(SizeLimitError) as exc:
        markov_matrix(C2, nielsen_swap(1, 33), 1, max_points=2**33)
    assert str(exc.value) == "averaging over c2^33 needs 33 coordinates, over the limit of 32"
    got = markov_matrix(C2, nielsen_swap(1, 32), 1, max_points=2**32)
    assert got.to_strings() == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_a_raised_budget_meets_the_array_limit_after_the_axes():
    # the most int64 entries one numpy array holds: numpy refuses 2^60
    assert MAX_ARRAY_ENTRIES == 2**60 - 1
    swap = nielsen_swap(1, 2)
    refusals = [
        (Q8, 21, f"averaging over q8^21 needs {8**21} points"),
        (Q8, 24, f"averaging over q8^24 needs {8**24} points"),
        (C2, 30, f"markov_matrix on c2^30 needs {2**60} cells"),
    ]
    for K, m, message in refusals:
        with pytest.raises(SizeLimitError) as exc:
            markov_matrix(K, swap, m, max_points=10**70)
        assert str(exc.value) == f"{message}, over the limit of {2**60 - 1}"
        with pytest.raises(SizeLimitError) as exc:
            compress_to_invariants(K, Subgroup.whole(K), m, RationalMatrix.identity(1), max_points=10**70)
        assert str(exc.value).startswith(f"compress_to_invariants on {K.name}^{m} needs ")
        assert str(exc.value).endswith(f" cells, over the limit of {2**60 - 1}")
    # the axis limit still comes first
    with pytest.raises(SizeLimitError, match=r"^averaging over q8\^33 needs 33 coordinates"):
        markov_matrix(Q8, swap, 33, max_points=10**70)


def test_size_guardrail():
    g = rand_aut(17, 6)
    with pytest.raises(SizeLimitError):
        markov_matrix(C2, g, 1, truncation=30)
    with pytest.raises(SizeLimitError):
        action_map(C2, g, 40)
    with pytest.raises(SizeLimitError):
        markov_matrix(C3, g, 1, truncation=10, max_points=3**9)
    # exactly at the budget is allowed
    markov_matrix(C3, g, 1, truncation=9, max_points=3**9)
    with pytest.raises(ValueError):
        markov_matrix(C3, g, 1, max_points=0)


def test_output_cells_count_against_the_budget():
    # 2^16 points fit the default budget; the 2^32-cell matrix does not
    with pytest.raises(SizeLimitError, match=r"markov_matrix .*4294967296 cells.*10000000"):
        markov_matrix(C2, theta(0, 8), 16)
    # the projection is charged against the default budget alone
    with pytest.raises(SizeLimitError, match=r"^projection_matrix on c2\^12 needs 16777216 cells"):
        projection_matrix(C2, 0, 12)
    assert projection_matrix(C2, 0, 3).rows == 8
    whole = Subgroup.whole(C3)
    with pytest.raises(SizeLimitError, match="compress_to_invariants"):
        compress_to_invariants(C3, whole, 2, RationalMatrix.identity(9), max_points=80)
    assert compress_to_invariants(C3, whole, 2, RationalMatrix.identity(9), max_points=81).rows == 9


# --- projection ---------------------------------------------------------

def test_projection_frozen_m0():
    p = projection_matrix(C2, 0, 1)
    assert p.to_strings() == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_projection_idempotent_and_stochastic():
    for m, n_coords in ((0, 2), (1, 2), (2, 2), (1, 3)):
        p = projection_matrix(C2, m, n_coords)
        assert p @ p == p
        assert p.is_doubly_stochastic()
        assert RationalMatrix(p.num.T, p.den) == p
    with pytest.raises(ValueError):
        projection_matrix(C2, 3, 2)


# --- conjugation orbits and compression ---------------------------------

def test_trivial_subgroup_compression_is_identity_map():
    g = rand_aut(23, 6)
    m = markov_matrix(C3, g, 1)
    assert compress_to_invariants(C3, Subgroup.trivial(C3), 1, m) == m


def test_compression_preserves_identity_and_products():
    whole = Subgroup.whole(S3)
    assert compress_to_invariants(
        S3, whole, 1, RationalMatrix.identity(6)
    ) == RationalMatrix.identity(3)
    for seed in range(3):
        g = rand_aut(seed, 5, max_index=3)
        h = rand_aut(70 + seed, 5, max_index=3)
        prod = coset_product(1, g, h)
        big = compress_to_invariants(S3, whole, 1, markov_matrix(S3, prod.rep, 1))
        small = compress_to_invariants(S3, whole, 1, markov_matrix(S3, g, 1)) @ compress_to_invariants(
            S3, whole, 1, markov_matrix(S3, h, 1)
        )
        assert big == small


def reference_orbits(K, members, m):
    """Orbits of diagonal conjugation, built point by point from the
    multiplication table: (orbits ordered by smallest member, point perms)."""
    ti = TupleIndex(K.order, m)
    mul, inv = K.mul_np.tolist(), K.inv_np.tolist()
    perms = [
        [
            ti.encode(tuple(mul[mul[u][k]][inv[u]] for k in ti.decode(p)))
            for p in range(ti.n_points)
        ]
        for u in members
    ]
    orbits = sorted({tuple(sorted({perm[p] for perm in perms})) for p in range(ti.n_points)})
    return orbits, perms


def reference_compress(K, members, m, matrix):
    """Loop version of compress_to_invariants: commutation checked entry by
    entry, then each orbit-pair block summed in Fractions and divided by the
    size of the source orbit."""
    data = entries(matrix)
    orbits, perms = reference_orbits(K, members, m)
    dim = K.order**m
    for u, perm in zip(members, perms):
        for r in range(dim):
            for c in range(dim):
                if data[perm[r]][perm[c]] != data[r][c]:
                    raise ValueError(f"matrix does not commute with conjugation by element {u}")
    return fraction_matrix(
        [
            [
                Fraction(1, len(source)) * sum(data[p][q] for p in source for q in target)
                for target in orbits
            ]
            for source in orbits
        ]
    )


def cyclic_subgroup(K, x):
    mul = K.mul_np.tolist()
    members = {K.identity}
    power = x
    while power not in members:
        members.add(power)
        power = mul[power][x]
    return Subgroup(K, members)


def subgroups_to_compress(K):
    cyclic = {cyclic_subgroup(K, x).members for x in range(K.order)}
    proper = sorted(c for c in cyclic if 1 < len(c) < K.order)
    return [Subgroup.whole(K), Subgroup.trivial(K)] + [Subgroup(K, c) for c in proper[:3]]


@pytest.mark.parametrize("name", ["c3", "s3", "q8", "d8"])
@pytest.mark.parametrize("m", [1, 2])
def test_compression_matches_reference(name, m):
    K = builtin_group(name)
    support = 3 if K.order > 3 else 4
    mats = [
        markov_matrix(K, rand_aut(seed, 6, max_index=support), m) for seed in range(2)
    ] + [RationalMatrix.identity(K.order**m)]
    for u in subgroups_to_compress(K):
        for mat in mats:
            got = compress_to_invariants(K, u, m, mat)
            want = reference_compress(K, u.members, m, mat)
            assert got == want
            assert got.to_strings() == want.to_strings()


def test_compression_rejects_like_reference():
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    rows[1][3] = Fraction(1, 2)
    mat = fraction_matrix(rows)
    with pytest.raises(ValueError, match="element 1$") as got:
        compress_to_invariants(S3, Subgroup.whole(S3), 1, mat)
    with pytest.raises(ValueError) as want:
        reference_compress(S3, Subgroup.whole(S3).members, 1, mat)
    assert str(got.value) == str(want.value)


def test_compression_rejects_non_invariant_matrix():
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    rows[0][1] = Fraction(1)  # couples the unit to a single transposition
    with pytest.raises(ValueError):
        compress_to_invariants(S3, Subgroup.whole(S3), 1, fraction_matrix(rows))
    with pytest.raises(ValueError):
        compress_to_invariants(S3, Subgroup.whole(S3), 1, RationalMatrix.identity(5))


@pytest.mark.parametrize("name", ["c3", "s3", "q8", "d8"])
@given(
    st.integers(0, 2),
    st.integers(0, 4),
    st.sampled_from([3, 2**62]),
    st.integers(1, 10**20),
    st.integers(0, 2**32),
)
@settings(max_examples=20)
def test_compression_of_invariant_integer_matrices_matches_reference(name, m, which, scale, den, seed):
    """A sum of P_u R P_u^T over U is U-invariant; with entries near 2^62 the
    sums leave int64 and the products run on Python ints."""
    K = builtin_group(name)
    subgroups = subgroups_to_compress(K)
    u = subgroups[which % len(subgroups)]
    dim = K.order**m
    rng = random.Random(seed)
    r = np.array([[rng.randint(-scale, scale) for _ in range(dim)] for _ in range(dim)], dtype=object)
    perms = reference_orbits(K, u.members, m)[1]
    invariant = sum(r[np.ix_(perm, perm)] for perm in perms)
    mat = RationalMatrix(invariant, den)
    got = compress_to_invariants(K, u, m, mat)
    assert got == reference_compress(K, u.members, m, mat)
    assert got.rows == len(reference_orbits(K, u.members, m)[0])


def test_orbits_and_compression_at_a_single_point():
    C1 = builtin_group("c1")
    one = RationalMatrix([[-7]], 3)
    assert compress_to_invariants(S3, Subgroup.whole(S3), 0, one) == one
    assert compress_to_invariants(C1, Subgroup.whole(C1), 3, one) == one


@pytest.mark.parametrize("u", [[0, 1, 2], None], ids=["list", "None"])
def test_compression_takes_a_subgroup_only(u):
    with pytest.raises(TypeError) as exc:
        compress_to_invariants(C3, u, 1, RationalMatrix.identity(3))
    assert str(exc.value) == f"compress_to_invariants needs a Subgroup, got {type(u).__name__}"


def test_only_the_two_calls_of_rep_matrix_take_a_point_budget():
    # rep-matrix --max-points reaches markov_matrix and compress_to_invariants;
    # every other public call is held to DEFAULT_MAX_POINTS
    functions = [getattr(autcosets, name) for name in autcosets.__all__]
    taking = {
        f.__name__
        for f in functions
        if inspect.isfunction(f) and "max_points" in inspect.signature(f).parameters
    }
    assert taking == {"markov_matrix", "compress_to_invariants"}


def test_subgroup_of_another_group_is_refused():
    whole_s3 = Subgroup.whole(S3)
    with pytest.raises(ValueError, match="subgroup of s3 does not act on c3"):
        compress_to_invariants(C3, whole_s3, 1, RationalMatrix.identity(3))
    # an equal table built a second time is the same group
    again = group_from_dict(group_to_dict(S3))
    assert again is not S3
    assert compress_to_invariants(again, whole_s3, 1, RationalMatrix.identity(6)).rows == 3


def invariant_matrix(K, u, m, rng, scale):
    """A sum of P_u R P_u^T over U for a random integer R: U-invariant."""
    dim = K.order**m
    r = np.array([[rng.randint(-scale, scale) for _ in range(dim)] for _ in range(dim)], dtype=object)
    return sum(r[np.ix_(perm, perm)] for perm in reference_orbits(K, u.members, m)[1])


@pytest.mark.parametrize("name", ["c3", "s3", "q8", "d8"])
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32), st.integers(-3, 3))
@settings(max_examples=15, deadline=None)
def test_compression_of_perturbed_matrices_matches_reference(name, m, which, seed, delta):
    """Commutation is checked on generators only: a matrix that fails for
    some member must still be refused, naming the member the full scan of
    the reference names first."""
    K = builtin_group(name)
    # element 3 has order 3 in s3 and 4 in q8 and d8, and is not central
    cyclic = cyclic_subgroup(K, 1 if name == "c3" else 3)
    u = [Subgroup.whole(K), Subgroup.trivial(K), cyclic][which]
    rng = random.Random(seed)
    num = invariant_matrix(K, u, m, rng, 5)
    dim = K.order**m
    num[rng.randrange(dim), rng.randrange(dim)] += delta
    mat = RationalMatrix(num, 3)
    try:
        want = reference_compress(K, u.members, m, mat)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            compress_to_invariants(K, u, m, mat)
        assert str(got.value) == str(err)
    else:
        assert compress_to_invariants(K, u, m, mat) == want


@pytest.mark.parametrize("name", ["s3", "q8", "d8"])
def test_every_single_cell_perturbation_is_refused_like_reference(name):
    """Some cells break commutation with a later generator only (in s3,
    a cell on the centralizer of element 1 fails first at element 2)."""
    K = builtin_group(name)
    dim = K.order
    for u in (Subgroup.whole(K), cyclic_subgroup(K, 3)):
        for cell in range(dim * dim):
            num = np.eye(dim, dtype=np.int64)
            num.flat[cell] += 1
            mat = RationalMatrix(num)
            try:
                want = reference_compress(K, u.members, 1, mat)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    compress_to_invariants(K, u, 1, mat)
                assert str(got.value) == str(err)
            else:
                assert compress_to_invariants(K, u, 1, mat) == want


def centre(K):
    mul = K.mul_np
    return Subgroup(K, [x for x in range(K.order) if (mul[x] == mul[:, x]).all()])


@pytest.mark.parametrize(
    "name, which", [("c3", "whole"), ("s3", "trivial"), ("q8", "centre"), ("d8", "centre")]
)
@pytest.mark.parametrize("m", [0, 1, 2])
def test_compression_over_a_central_subgroup_is_the_matrix_itself(name, which, m):
    """Every orbit of a central U is one point, so the compression is the
    matrix, and equals the reference; the checks still run first."""
    K = builtin_group(name)
    u = {"whole": Subgroup.whole, "trivial": Subgroup.trivial, "centre": centre}[which](K)
    assert len(u.members) > 1 or which == "trivial"
    dim = K.order**m
    mats = [markov_matrix(K, rand_aut(seed, 6, max_index=3), m) for seed in range(2)]
    for mat in mats + [RationalMatrix.identity(dim)]:
        got = compress_to_invariants(K, u, m, mat)
        assert got is mat
        assert got == reference_compress(K, u.members, m, mat)
    if m:
        with pytest.raises(ValueError, match=f"matrix must be {dim}x{dim}"):
            compress_to_invariants(K, u, m, RationalMatrix.identity(dim + 1))
        with pytest.raises(SizeLimitError):
            compress_to_invariants(K, u, m, mats[0], max_points=dim)


@pytest.mark.parametrize("name, members", [("d8", (0, 2, 5, 7)), ("q8", tuple(range(8)))])
@given(st.integers(1, 2), st.integers(0, 2**32), st.integers(-3, 3))
@settings(max_examples=15)
def test_dropped_central_generators_leave_the_first_failing_member_named(name, members, m, seed, delta):
    """In d8, {0, 2, 5, 7} has the greedy generators 2 and the central 5, and
    q8 has 1, 2, 4 with 1 central: only the non-central ones are checked,
    and a matrix that fails is refused naming the member the reference
    names first."""
    K = builtin_group(name)
    u = Subgroup(K, members)
    gens = _orbit_structure(weakref.ref(K), u.members, m)[0]
    assert gens == ((2,) if name == "d8" else (2, 4))
    rng = random.Random(seed)
    num = invariant_matrix(K, u, m, rng, 5)
    dim = K.order**m
    num[rng.randrange(dim), rng.randrange(dim)] += delta
    mat = RationalMatrix(num, 3)
    try:
        want = reference_compress(K, u.members, m, mat)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            compress_to_invariants(K, u, m, mat)
        assert str(got.value) == str(err)
    else:
        assert compress_to_invariants(K, u, m, mat) == want


def test_a_non_commuting_matrix_over_d8_names_element_2():
    D8 = builtin_group("d8")
    num = np.eye(8, dtype=np.int64)
    num[0, 1] = 1  # conjugation by 2 swaps the points 1 and 4
    mat = RationalMatrix(num)
    u = Subgroup(D8, (0, 2, 5, 7))
    with pytest.raises(ValueError, match="element 2$"):
        compress_to_invariants(D8, u, 1, mat)
    with pytest.raises(ValueError, match="element 2$"):
        reference_compress(D8, u.members, 1, mat)


def count_conjugation_perms(monkeypatch):
    built = []
    real = autcosets.repengine._conjugation_perm

    def counting(K, u, m):
        built.append(u)
        return real(K, u, m)

    monkeypatch.setattr(autcosets.repengine, "_conjugation_perm", counting)
    return built


def test_orbit_structure_is_built_once_per_group_subgroup_and_m(monkeypatch):
    Q8 = builtin_group("q8")
    whole = Subgroup.whole(Q8)
    mat = markov_matrix(Q8, rand_aut(5, 6, max_index=3), 2)
    autcosets.repengine._orbit_structure.cache_clear()
    built = count_conjugation_perms(monkeypatch)
    first = compress_to_invariants(Q8, whole, 2, mat)
    # generators only: at most log2|U| permutations, never one per member
    assert 0 < len(built) <= 3
    del built[:]
    assert compress_to_invariants(Q8, whole, 2, mat) == first
    assert compress_to_invariants(builtin_group("q8"), Subgroup.whole(Q8), 2, mat) == first
    assert built == []
    compress_to_invariants(Q8, whole, 1, markov_matrix(Q8, rand_aut(5, 6, max_index=3), 1))
    assert built != []


def test_cached_orbit_structure_is_read_only_and_linear_in_the_points():
    D8 = builtin_group("d8")
    compress_to_invariants(D8, Subgroup.whole(D8), 2, RationalMatrix.identity(64))
    gens, perms, reps, order, starts = autcosets.repengine._orbit_structure(
        weakref.ref(D8), Subgroup.whole(D8).members, 2
    )
    assert len(gens) == len(perms) <= 3
    for arr in perms + (reps, order, starts):
        assert arr.size <= 64
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert autcosets.repengine._orbit_structure.cache_info().maxsize is not None


def test_cli_requests_on_a_fixed_builtin_share_the_orbit_structure(monkeypatch, capsys):
    argv = ["rep-matrix", "--group", "s3", "--m", "2", "--u", "0,1,2,3,4,5"]
    argv += ["--g", json.dumps(automorphism_to_dict(rand_aut(3, 6, max_index=3)))]
    autcosets.repengine._orbit_structure.cache_clear()
    built = count_conjugation_perms(monkeypatch)
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert built != []
    del built[:]
    assert cli.main(argv) == 0
    assert built == []
    assert capsys.readouterr().out == first


def test_orbit_cache_keeps_no_group_alive():
    K = builtin_group("c7")
    alive = weakref.ref(K)
    compress_to_invariants(K, Subgroup.whole(K), 2, RationalMatrix.identity(49))
    del K
    assert alive() is None


def test_equal_groups_built_apart_compress_alike():
    again = group_from_dict(group_to_dict(S3))
    assert again is not S3 and again == S3 and hash(again) == hash(S3)
    g = rand_aut(11, 6, max_index=3)
    for m in (1, 2):
        mat = markov_matrix(S3, g, m)
        for members in ([0, 1, 2, 3, 4, 5], [0, 3, 4]):
            want = compress_to_invariants(S3, Subgroup(S3, members), m, mat)
            got = compress_to_invariants(again, Subgroup(again, members), m, mat)
            assert got == want
            assert got.to_strings() == want.to_strings()


# --- cylinder functions -------------------------------------------------

def brute_inner(K, n_coords, f, fp):
    n = K.order
    ti = TupleIndex(n, n_coords)
    total = Fraction(0)
    for idx in range(ti.n_points):
        total += f.values[idx % n**f.level] * fp.values[idx % n**fp.level]
    return total / ti.n_points


def test_delta_and_inner_product():
    fa = delta_cylinder(C2, (0, 1))
    fb = delta_cylinder(C2, (0, 1))
    fc = delta_cylinder(C2, (1, 1))
    assert cylinder_inner_product(C2, 2, fa, fb) == Fraction(1, 4)
    assert cylinder_inner_product(C2, 5, fa, fb) == Fraction(1, 4)
    assert cylinder_inner_product(C2, 2, fa, fc) == 0
    with pytest.raises(ValueError):
        cylinder_inner_product(C2, 1, fa, fb)


def test_inner_product_matches_brute_enumeration():
    f = CylinderFunction(1, (Fraction(1, 2), Fraction(-1, 3), Fraction(2)))
    fp = CylinderFunction(2, tuple(Fraction(i, 7) for i in range(9)))
    for n_coords in (2, 3):
        assert cylinder_inner_product(C3, n_coords, f, fp) == brute_inner(
            C3, n_coords, f, fp
        )


def test_project_cylinder():
    f = delta_cylinder(C2, (0, 1, 1))
    p = project_cylinder(C2, 1, f)
    assert p.level == 1
    assert p.values == (Fraction(1, 4), Fraction(0))
    assert project_cylinder(C2, 5, f) is f
    # projection is averaging: inner products against low cylinders agree
    g = delta_cylinder(C2, (0,))
    assert cylinder_inner_product(C2, 3, f, g) == cylinder_inner_product(C2, 3, p, g)


def test_translate_by_permutation_oracle():
    f = delta_cylinder(C3, (1, 2))
    swap = {1: 3, 3: 1}
    t = translate_by_permutation(C3, swap, f, 3)
    ti = TupleIndex(3, 3)
    for idx in range(27):
        point = ti.decode(idx)
        looked_up = (point[2], point[1])  # coordinates 3 and 2
        expected = f.values[TupleIndex(3, 2).encode(looked_up)]
        assert t.values[idx] == expected


def test_translate_validation():
    f = delta_cylinder(C2, (0, 1))
    with pytest.raises(SupportViolation):
        translate_by_permutation(C2, {2: 4, 4: 2}, f, 3)
    with pytest.raises(ValueError):
        translate_by_permutation(C2, {1: 2}, f, 3)


def test_weak_limit_frozen_values():
    # m=1, margin 1, j=1 over c2: matched value 1/8; j=0 gives 1/4 vs 1/8
    fa = delta_cylinder(C2, (0, 0))
    swap = {2: 3, 3: 2}
    t = translate_by_permutation(C2, swap, fa, 3)
    assert cylinder_inner_product(C2, 3, t, fa) == Fraction(1, 8)
    p = project_cylinder(C2, 1, fa)
    assert cylinder_inner_product(C2, 3, p, p) == Fraction(1, 8)
    assert cylinder_inner_product(C2, 2, fa, fa) == Fraction(1, 4)


def test_weak_limit_threshold():
    for margin in (1, 2):
        for j in range(margin):
            assert not weak_limit_check(C2, 1, margin, j)
        for j in range(margin, margin + 3):
            assert weak_limit_check(C2, 1, margin, j)


def test_weak_limit_other_groups_and_trivial_cases():
    assert weak_limit_check(C3, 1, 1, 1)
    assert not weak_limit_check(C3, 1, 1, 0)
    assert weak_limit_check(C2, 0, 1, 1)
    assert weak_limit_check(C2, 2, 0, 0)  # margin 0: nothing to separate
    assert weak_limit_check(builtin_group("c1"), 1, 2, 0)  # trivial group


def weak_limit_grid():
    """(group, m, m_cyl, j) for m, m_cyl in 0..2 and j in 0..3 over c1, c2,
    c3 and s3, keeping the cases whose cylinder loop stays small: n^(2 level)
    pairs times n^(m + j + m_cyl) points at most 2e4."""
    cases = []
    for name in ("c1", "c2", "c3", "s3"):
        n = builtin_group(name).order
        for m, m_cyl, j in itertools.product(range(3), range(3), range(4)):
            if n ** (2 * (m + m_cyl)) * n ** (m + j + m_cyl) <= 2e4:
                cases.append((name, m, m_cyl, j))
    return cases


def test_weak_limit_matches_cylinder_oracle():
    cases = weak_limit_grid()
    assert len(cases) == 107
    mismatches = [
        case
        for case in cases
        if weak_limit_check(builtin_group(case[0]), *case[1:])
        != cylinder_weak_limit(builtin_group(case[0]), *case[1:])
    ]
    assert mismatches == []
    # the grid holds both answers for every nontrivial group
    for name in ("c2", "c3", "s3"):
        answers = {weak_limit_check(builtin_group(name), *case[1:]) for case in cases if case[0] == name}
        assert answers == {True, False}


def test_weak_limit_swaps_only_the_pairs_it_reads():
    # theta(1, 12) moves x25, but level 2 reads one swapped pair: 2^14 points
    assert weak_limit_check(C2, 1, 1, 12)
    for K, m, m_cyl, j in [(C2, 1, 1, 3), (C3, 1, 2, 3), (C3, 0, 1, 2), (S3, 1, 1, 2), (C2, 1, 2, 1)]:
        level = m + m_cyl
        whole = markov_matrix(K, theta(m, j), level, truncation=max(m + j + m_cyl, m + 2 * j))
        assert weak_limit_check(K, m, m_cyl, j) == (whole == projection_matrix(K, m, level))


def test_weak_limit_bounds_its_output_cells():
    # 2^12 points fit the default budget, but the two 2^12 x 2^12 matrices do not;
    # at m_cyl = 10 the 2^11 x 2^11 matrices still fit, so this is the first refusal
    with pytest.raises(
        SizeLimitError, match=r"^markov_matrix on c2\^12 needs 16777216 cells, over the limit of 10000000$"
    ):
        weak_limit_check(C2, 1, 11, 0)
    assert not weak_limit_check(C2, 1, 2, 0)
    with pytest.raises(SizeLimitError, match=r"^weak limit over c2\^24 needs 16777216 points"):
        weak_limit_check(C2, 1, 2, 21)


def test_cylinder_functions_are_not_library_api():
    for name in (
        "CylinderFunction", "delta_cylinder", "translate_by_permutation",
        "cylinder_inner_product", "project_cylinder", "eval_word",
    ):
        assert not hasattr(autcosets, name)
        assert not hasattr(autcosets.repengine, name)
        assert name not in autcosets.__all__


def test_second_paths_are_not_library_api():
    # each job has one library path; the scalar point order lives in eval_oracle
    for name in ("TupleIndex", "conjugation_orbits"):
        for module in (autcosets, autcosets.groups, autcosets.repengine):
            assert not hasattr(module, name)
        assert name not in autcosets.__all__
    for name in ("mul", "inv", "conjugate"):
        assert not hasattr(S3, name)
    # one way into an exact matrix; the Fraction views live in eval_oracle
    for name in ("from_strings", "from_numerators", "entry", "row", "transpose"):
        assert not hasattr(RationalMatrix, name)
    # the triple product is the associativity oracle in coset_oracle
    for name in ("triple_product_disjoint", "_shift_upper_block"):
        assert not hasattr(autcosets, name)
        assert not hasattr(autcosets.cosets, name)
        assert name not in autcosets.__all__
    assert not callable(action_map(C2, nielsen_swap(1, 2), 2))


# (function, positional arguments, keyword arguments, the integer ones;
#  the floor of each integer argument that has a constant one)
INTEGER_ARGUMENTS = [
    (
        markov_matrix,
        (C3, nielsen_swap(1, 2)),
        {"m": 1, "truncation": 5, "max_points": 10**6},
        {"m": 0, "max_points": 1},
    ),
    (
        action_map,
        (C3, nielsen_swap(1, 2)),
        {"n_coords": 4},
        {"n_coords": 0},
    ),
    (projection_matrix, (C2,), {"m": 1, "n_coords": 2}, {"m": 0}),
    (
        compress_to_invariants,
        (S3, Subgroup.whole(S3)),
        {"m": 1, "matrix": RationalMatrix.identity(6), "max_points": 10**6},
        {"m": 0, "max_points": 1},
    ),
    (
        weak_limit_check,
        (C2,),
        {"m": 1, "m_cyl": 1, "j": 1},
        {"m": 0, "m_cyl": 0, "j": 0},
    ),
]


@pytest.mark.parametrize(
    "func, args, kwargs, name",
    [
        pytest.param(func, args, kwargs, name, id=f"{func.__name__}-{name}")
        for func, args, kwargs, _ in INTEGER_ARGUMENTS
        for name in kwargs
        if name != "matrix"
    ],
)
@pytest.mark.parametrize("bad", [5.9, True, "6"])
def test_integer_arguments_refuse_non_integers(func, args, kwargs, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        func(*args, **{**kwargs, name: bad})


def _result(func, args, kwargs):
    got = func(*args, **kwargs)
    return got.table.tolist() if func is action_map else got


@pytest.mark.parametrize(
    "func, args, kwargs",
    [pytest.param(*case[:3], id=case[0].__name__) for case in INTEGER_ARGUMENTS],
)
def test_integer_arguments_accept_numpy_integers(func, args, kwargs):
    as_numpy = {k: np.int64(v) if isinstance(v, int) else v for k, v in kwargs.items()}
    assert _result(func, args, as_numpy) == _result(func, args, kwargs)


_FLOOR_CASES = [
    pytest.param(func, args, kwargs, name, floor, id=f"{func.__name__}-{name}")
    for func, args, kwargs, floors in INTEGER_ARGUMENTS
    for name, floor in floors.items()
]


@pytest.mark.parametrize("func, args, kwargs, name, floor", _FLOOR_CASES)
def test_integer_arguments_refuse_values_below_their_floor(func, args, kwargs, name, floor):
    with pytest.raises(ValueError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        func(*args, **{**kwargs, name: floor - 1})


def _outcome(func, args, kwargs):
    try:
        return _result(func, args, kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("func, args, kwargs, name, floor", _FLOOR_CASES)
def test_integer_arguments_accept_numpy_integers_at_their_floor(func, args, kwargs, name, floor):
    # where the call is valid at the floor, np.int64 gives the same result;
    # where another rule refuses it (the point budget), the same refusal
    want = _outcome(func, args, {**kwargs, name: floor})
    assert _outcome(func, args, {**kwargs, name: np.int64(floor)}) == want
    assert "must be >=" not in str(want)


# --- associativity through the matrices ---------------------------------

def test_triple_product_matches_bracketings_in_matrices():
    for seed in range(4):
        m = 1 + seed % 2
        g = rand_aut(seed, 6, max_index=m + 2)
        h = rand_aut(40 + seed, 6, max_index=m + 2)
        f = rand_aut(80 + seed, 6, max_index=m + 2)
        left = coset_product(m, coset_product(m, g, h).rep, f).rep
        right = coset_product(m, g, coset_product(m, h, f).rep).rep
        trip = triple_product_disjoint(m, g, h, f)
        mats = [markov_matrix(C2, a, m) for a in (left, right, trip)]
        assert mats[0] == mats[1] == mats[2]


# --- the matrix laws shared by verify and the acceptance gate ------------

def test_matrix_laws_fail_on_a_wrong_product():
    whole = Subgroup.whole(S3)
    g, h = rand_aut(5, 6, max_index=3), rand_aut(6, 6, max_index=3)
    product, mg, mh = product_matrices(S3, 1, g, h)
    assert matrix_product_agrees(product, mg, mh)
    assert compressed_product_agrees(S3, whole, 1, product, mg, mh)
    # the identity commutes with conjugation but is not mg @ mh
    wrong = RationalMatrix.identity(S3.order)
    assert mg @ mh != wrong
    assert not matrix_product_agrees(wrong, mg, mh)
    assert not compressed_product_agrees(S3, whole, 1, wrong, mg, mh)


# --- carried int64 bounds -------------------------------------------------

def assert_bound_holds(M):
    """M's bound is an int >= max|num|: a matrix the library built carries
    it from what built it, one from outside from a scan at construction."""
    bound = M._bound
    assert type(bound) is int and bound >= int(np.abs(M.num).max())


def assert_product_matches_scan(a, b):
    """The product's values and dtype are those of a product that scans both
    factors for its int64 bound, before and after lowest terms."""
    want = scan_int_matmul(a.num, b.num)
    got = int_matmul(a.num, b.num, a._bound, b._bound)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    prod = a @ b
    ref = RationalMatrix(want, a.den * b.den)
    assert prod == ref and prod.num.dtype == ref.num.dtype
    return prod


@given(st.sampled_from(["c2", "c3", "s3", "q8", "d8"]), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=30)
def test_every_library_matrix_carries_a_bound_and_products_match_the_scan(name, m, seed):
    K = builtin_group(name)
    dim = K.order**m
    tg, th = (markov_matrix(K, rand_aut(seed + i, 6, max_index=3), m) for i in range(2))
    built = [tg, th, RationalMatrix.identity(dim), projection_matrix(K, max(m - 1, 0), m)]
    prod = assert_product_matches_scan(tg, th)
    chained = prod
    for factor in (tg, prod, th, prod):
        chained = assert_product_matches_scan(chained, factor)
    built += [prod, chained]
    for u in subgroups_to_compress(K):
        cg, ch = (compress_to_invariants(K, u, m, t) for t in (tg, chained))
        built += [cg, ch, assert_product_matches_scan(cg, ch)]
    for M in built:
        assert_bound_holds(M)


big_int_st = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))


@given(
    st.lists(st.lists(big_int_st, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(big_int_st, min_size=2, max_size=2), min_size=3, max_size=3),
    st.integers(1, 2**65),
)
def test_constructed_matrices_get_a_bound_at_construction(rows_a, rows_b, den):
    a = RationalMatrix(rows_a, den)
    b = RationalMatrix(np.array(rows_b, dtype=object))
    small = RationalMatrix(np.array([[x % 7 for x in row] for row in rows_b], dtype=np.int64))
    for M in (a, b, small):
        assert_bound_holds(M)
    for x, y in ((a, b), (a, small)):
        assert_bound_holds(assert_product_matches_scan(x, y))


def test_a_carried_bound_past_int64_falls_back_to_the_exact_scan():
    # each product multiplies the carried bound by its inner size: 32
    # products by the 4x4 identity carry 4^32 = 2^64, entries still 0 or 1
    e = RationalMatrix.identity(4)
    power = e
    for _ in range(32):
        power = power @ e
    assert power._bound > INT64_MAX
    assert power == e and power.num.dtype == np.int64
    square = assert_product_matches_scan(power, power)
    assert square == e and square.num.dtype == np.int64
    assert power.is_doubly_stochastic()
    # 6^25 > 2^63: the compression scans its block and stays in int64
    six = RationalMatrix.identity(6)
    power = six
    for _ in range(25):
        power = power @ six
    assert power._bound * 6 > INT64_MAX
    got = compress_to_invariants(S3, Subgroup.whole(S3), 1, power)
    assert got == RationalMatrix.identity(3) and got.num.dtype == np.int64
    assert_bound_holds(got)
