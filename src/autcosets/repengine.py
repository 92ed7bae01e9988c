"""Exact averaged-action operators of free-group automorphisms on powers of
a finite group.

A point of K^N feeds coordinate i to generator x_i.  An automorphism g acts
on points by evaluating its generator images:

    action(k)_i = value of g(x_i) at k

(this is a right action: the point map of a composite applies the left
factor's map first).  Averaging the induced operator over the coordinates
above m yields an exact rational matrix on K^m — ``markov_matrix`` — which
is doubly stochastic and turns block-stabilized coset products into matrix
products.  All arithmetic is integer counting: a matrix is its integer
numerators over one exact denominator (a ``RationalMatrix``), with int64
used only where overflow is proven impossible, so no float ever enters.

Words are evaluated on a broadcast grid with one axis per coordinate
(``_grid_eval``): an axis the word does not read has length 1, so a matrix
counts only the points of the coordinates its rows and the images of
x_1..x_m actually read, and the other coordinates cancel from the exact
fraction.  ``action_map`` and ``markov_matrix`` refuse a support above N
at entry, the one check that every letter has its coordinate, so the grid
checks no letter.  A point map reads every coordinate, so its grid is
already full and is read flat as it stands.  ``weak_limit_check``
compares two such matrices.  The point budget still counts the n^N points
requested, and every output matrix counts its cells against the same
budget; a raised budget then meets ``MAX_ARRAY_ENTRIES``, so every array
and every point code fits int64.

A tuple of grids becomes one point code in ``_digit_sum``, the one helper
behind ``action_map``, ``markov_matrix`` and ``_conjugation_perm``.  It
adds the scaled digits in ascending ``ndim``, the highest coordinate each
one reads, not in coordinate order: the partial sums grow from the low
axes up.  In coordinate order the image of x_1 under a product
representative already reads a high coordinate, so every later add runs
over a high-dimensional shape with gaps, which numpy iterates in short
inner loops.  The sum is exact, so the order changes no value.

``compress_to_invariants`` averages a matrix over the orbits of a subgroup
U acting on K^m by conjugation.  What it needs of U (the point permutations
of a generating set, the orbit representatives, the points grouped by
orbit) is built once per (K, U, m) by ``_orbit_structure`` and kept in a
cache of fixed size that holds K by a weak reference; commutation is
checked on the generators, and columns are summed by orbit.
"""

from __future__ import annotations

__all__ = [
    "ActionMap", "action_map", "compress_to_invariants", "markov_matrix", "projection_matrix",
    "weak_limit_check",
]

import functools
import weakref

import numpy as np

from .automorphisms import Automorphism, _image_code, _require_automorphism
from .cosets import _block_swap
from .errors import (
    DEFAULT_MAX_POINTS, MAX_ARRAY_ENTRIES, MAX_AXES, MAX_COORDINATES, SupportViolation, check_size,
)
from .groups import FiniteGroup, Subgroup, _greedy_generators
from .ratmat import RationalMatrix
from .words import Code, _clip, _integer


def _check_budget(what: str, K: FiniteGroup, exp: int, cells: bool = False, max_points=None) -> None:
    """Refuse n^exp points of K^exp, or with ``cells`` an n^exp x n^exp
    matrix, over the point budget (DEFAULT_MAX_POINTS unless ``max_points``
    is given), then exp over its coordinate limit, then the points or cells
    over MAX_ARRAY_ENTRIES, for the layer named ``<what> <K>^<exp>``.  A
    matrix's n^(2 exp) cells bound its n^exp points too, so a charge for
    its cells needs no points charge.

    The coordinate limit is MAX_AXES for a group of order 2 or more, whose
    grids put coordinate i on axis -i, and MAX_COORDINATES for order 1,
    whose grids have no axes.  Only ``markov_matrix`` and
    ``compress_to_invariants`` pass a ``max_points``: under the default
    budget, below 2^MAX_AXES, a group of order 2 or more never meets
    MAX_AXES, nor MAX_ARRAY_ENTRIES.  The array limit comes last, so a
    raised budget keeps every earlier refusal."""
    budget = DEFAULT_MAX_POINTS if max_points is None else _integer(max_points, "max_points", 1)

    def layer():
        return f"{what} {K.name}^{_clip(exp)}"

    unit, total = ("cells", 2 * exp) if cells else ("points", exp)
    check_size(layer, K.order, unit, budget, total)
    check_size(layer, exp, "coordinates", MAX_AXES if K.order > 1 else MAX_COORDINATES)
    check_size(layer, K.order, unit, MAX_ARRAY_ENTRIES, total)


@functools.lru_cache(maxsize=256)
def _coordinate(n: int, i: int) -> np.ndarray:
    """Coordinate i of every point: arange(n) along axis -i, read-only and
    cached, so every word that reads x_i shares it.  A group of order 1 has
    one point, laid out with no axes; any other group lays out at most
    MAX_AXES coordinates, the axes numpy 1.x allows."""
    shape = (n,) + (1,) * (i - 1) if n > 1 else ()
    grid = np.arange(n, dtype=np.int32).reshape(shape)
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=32)
def _row_offsets(n: int, m: int) -> np.ndarray:
    """Read-only grid on K^m of each point's row offset in a flat n^m x n^m
    matrix: its index times n^m."""
    dim = n ** m
    rows = np.arange(0, dim * dim, dim, dtype=np.int64).reshape((n,) * m if n > 1 else ())
    rows.setflags(write=False)
    return rows


def _grid_eval(K: FiniteGroup, w: Code) -> np.ndarray:
    """Value of the code word ``w`` at every point of K^N, for any N at
    least the highest coordinate ``w`` reads (letters multiply left to
    right, coordinate i feeds x_i, and the sign of a code is the sign of
    its letter), on a read-only grid with one axis per coordinate.

    Coordinate i runs along axis N - i, so on the full grid the C-order
    flat index is the point's index, the base-n number whose least
    significant digit is coordinate 1.  Only the coordinates ``w`` reads
    are materialized: every other axis has length 1 (or is absent below
    the highest one read).  Only ``markov_matrix`` broadcasts such a grid
    against its row offsets; the point maps of ``action_map`` and
    ``_conjugation_perm`` read every coordinate, so their digit sums have
    every axis at full length already.  The callers refuse a support
    above N at entry, so every letter has its coordinate.

    ``w`` is non-empty: its one caller, ``_grid_code``, passes only images
    g(x_i) under an ``Automorphism`` g, and g(x_i) = 1 would put x_i in
    the kernel of a bijection.  With no generator to image (m = 0 or
    N = 0) there is no word, and ``_digit_sum`` gives the one point.
    The value starts at the first letter's grid, so a word of one positive
    letter returns the cached coordinate grid itself and costs no gather.
    """
    n = K.order
    mul = K.mul_np
    inv = K.inv_np
    acc = None
    for c in w:
        coord = _coordinate(n, c if c > 0 else -c)
        value = coord if c > 0 else inv[coord]
        acc = value if acc is None else mul[acc, value]
    acc.setflags(write=False)
    return acc


def _digit_sum(n: int, digits) -> np.ndarray:
    """Base-n number of grids of digits in 0..n-1, least significant first:
    the index of the point whose coordinate i is the i-th digit.

    Each digit is scaled into a new int64 term in one op (the first, whose
    scale is 1, is only cast), so the digits, which may be cached read-only
    grids, are never written.  The terms are added in ascending ``ndim`` (a
    stable sort), starting from the first: coordinate i lies on axis -i, so
    a term's ``ndim`` is the highest coordinate it reads, and each partial
    sum spans no axis above the highest read so far.  In index order the
    first term, the image of x_1 under a product representative, already
    reaches a high axis, and every add runs over a shape of that many axes
    with gaps.  Integer addition is exact and the sum is below
    n^N <= MAX_ARRAY_ENTRIES < 2^63, so the order changes neither the
    values nor the broadcast shape.  No digits give the index 0 of the one
    point of K^0; 0-d digits (a group of order 1) give a numpy scalar,
    which every caller only ravels."""
    terms = [
        np.multiply(digit, n**i, dtype=np.int64) if i else digit.astype(np.int64)
        for i, digit in enumerate(digits)
    ]
    terms.sort(key=lambda term: term.ndim)
    if not terms:
        return np.zeros((), dtype=np.int64)
    code = terms[0]
    for term in terms[1:]:
        code = code + term
    return code


def _grid_code(K: FiniteGroup, words) -> np.ndarray:
    """Base-n number of the tuple of values of the code words ``words``
    (the first word gives the least significant digit), on the grid of
    ``_grid_eval``."""
    return _digit_sum(K.order, (_grid_eval(K, w) for w in words))


class ActionMap:
    """Bijection of K^n_coords induced by an automorphism, tabulated on
    point indices: ``table[p]`` is the index of the image of point p, where
    coordinate 1 is the least significant base-n digit of an index.

    The table is all it holds: every caller reads ``table`` alone, and the
    group and n_coords are the caller's own arguments to ``action_map``."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table


def action_map(K: FiniteGroup, g: Automorphism, n_coords: int) -> ActionMap:
    """Point map of ``g`` on K^n_coords, a bijection because g has an inverse.

    Requires the support of g to fit inside the first n_coords generators,
    and its n^n_coords points within DEFAULT_MAX_POINTS.  Composites
    reverse: the point map of compose(g, h) is the point map of g followed
    by the point map of h.

    The code grid is the full grid on K^n_coords, so its flat form is the
    table: g maps F_N onto F_N (N = n_coords), and images that never
    mention x_i generate only words without x_i, so the images of
    x_1..x_N together read every coordinate 1..N.  For a group of order 1
    or N = 0 the grid has no axes and ravels to its one point.  The table
    is not checked: ``_require_automorphism`` admits only verified or
    closed pairs, g.inv has the same support, and since composites reverse
    the point maps of g and g.inv compose to the point map of the identity
    both ways, so each inverts the other.  The law
    ``representation.point_maps_bijective`` checks it.
    """
    _require_automorphism(g, "action_map")
    n_coords = _integer(n_coords, "n_coords", 0)
    if g.support_bound() > n_coords:
        raise SupportViolation(
            f"automorphism moves x{_clip(g.support_bound())} but points have "
            f"{_clip(n_coords)} coordinates"
        )
    _check_budget("action on", K, n_coords)
    code = _grid_code(K, [_image_code(g.fwd, i) for i in range(1, n_coords + 1)])
    table = code.ravel()
    table.setflags(write=False)
    return ActionMap(table)


def markov_matrix(
    K: FiniteGroup, g: Automorphism, m: int, truncation=None, max_points=None
) -> RationalMatrix:
    """Exact transition matrix of the averaged action of ``g`` on K^m.

    Entry [a][b] is the fraction of uniform extensions of the m-tuple a to
    K^N whose image under the point action starts with the m-tuple b, where
    N defaults to max(support bound, m).  Rows and columns are indexed by
    point index, coordinate 1 being the least significant base-n digit.  The
    result is doubly stochastic, equals the identity for automorphisms
    fixing x_1..x_m, and does not change if ``truncation`` raises N further.

    The point budget (``max_points``, DEFAULT_MAX_POINTS unless given)
    counts all n^N points and the n^(2m) output cells, but only the
    coordinates 1..m and those the images of x_1..x_m read are enumerated:
    each other coordinate multiplies every count by n, which cancels in the
    lowest-terms result.

    ``g`` must be an ``Automorphism``: the image map of a mere endomorphism
    need not induce a bijection, and its matrix need not be stochastic.
    """
    _require_automorphism(g, "markov_matrix")
    m = _integer(m, "m", 0)
    bound = max(g.support_bound(), m)
    n_coords = bound if truncation is None else _integer(truncation, "truncation")
    if n_coords < bound:
        raise SupportViolation(
            f"truncation {_clip(n_coords)} is below the required bound {_clip(bound)}"
        )
    n = K.order
    _check_budget("averaging over", K, n_coords, max_points=max_points)
    _check_budget("markov_matrix on", K, m, cells=True, max_points=max_points)
    dim = n ** m
    # the row of a point is the code of its first m coordinates
    images = [_image_code(g.fwd, i) for i in range(1, m + 1)]
    key = _row_offsets(n, m) + _grid_code(K, images)
    counts = np.bincount(key.ravel(), minlength=dim * dim).reshape(dim, dim)
    # no count exceeds its row's total, the points over one row
    total = key.size // dim
    return RationalMatrix._exact(counts, total, total)


def projection_matrix(K: FiniteGroup, m: int, n_coords: int) -> RationalMatrix:
    """Matrix on K^n_coords of the conditional expectation onto functions of
    the first m coordinates: entry [p][q] = n^-(N-m) when p and q agree in
    coordinates 1..m, else 0.  Dense — quadratic in the point count, whose
    n^(2 n_coords) cells are charged against DEFAULT_MAX_POINTS."""
    m, n_coords = _integer(m, "m", 0), _integer(n_coords, "n_coords")
    if n_coords < m:
        raise ValueError("need 0 <= m <= n_coords")
    n = K.order
    _check_budget("projection_matrix on", K, n_coords, cells=True)
    npts = n ** n_coords
    head = np.arange(npts, dtype=np.int64) % n ** m
    same_head = (head[:, None] == head[None, :]).astype(np.int64)
    return RationalMatrix._exact(same_head, n ** (n_coords - m), 1)


def _conjugation_perm(K: FiniteGroup, u: int, m: int) -> np.ndarray:
    """Point permutation of K^m sending each coordinate k to u k u^-1,
    flat in point-index order: digit i reads coordinate i, so the digit
    sum has every axis at full length (or none, for m = 0 or order 1)."""
    n = K.order
    conj = K.mul_np[K.mul_np[u], K.inv_np[u]]
    return _digit_sum(n, (conj[_coordinate(n, i)] for i in range(1, m + 1))).ravel()


@functools.lru_cache(maxsize=16)
def _orbit_structure(group: weakref.ref, members: tuple[int, ...], m: int):
    """Conjugation orbits of the subgroup ``members`` on K^m, built once per
    (K, U, m): (gens, perms, reps, order, starts), the arrays read-only.

    ``gens`` is the generating set of ``_greedy_generators`` less the
    members whose permutation fixes every point (a central member, or any
    member when m = 0), and ``perms`` their point permutations: a fixing
    permutation commutes with every matrix and moves no point to another
    orbit.  ``reps`` is the smallest point of each orbit
    (ascending), ``order`` the points grouped by orbit in the order of
    ``reps`` (ascending within an orbit), and ``starts`` the offset of each
    orbit in ``order``.  An entry holds O(log|U| * n^m) integers, and the
    cache keeps a fixed number of them.  K is keyed by a weak reference,
    which compares and hashes as K while K lives, so the cache never keeps
    a group's n^2 table alive."""
    K = group()
    dim = K.order ** m
    identity = np.arange(dim, dtype=np.int64)
    moving = []
    for elem in _greedy_generators(K.mul_np, K.identity, members):
        perm = _conjugation_perm(K, elem, m)
        if not np.array_equal(perm, identity):
            moving.append((elem, perm))
    gens = tuple(elem for elem, _ in moving)
    perms = tuple(perm for _, perm in moving)
    # the smallest point of each orbit, by pulling the minimum along the
    # generators until it settles: U is finite, so forward images reach the orbit
    first = identity
    while True:
        pulled = first
        for perm in perms:
            pulled = np.minimum(pulled, pulled[perm])
        if np.array_equal(pulled, first):
            break
        first = pulled
    is_rep = first == identity
    reps = np.flatnonzero(is_rep)
    orbit_of = (np.cumsum(is_rep) - 1)[first]
    # a stable sort keeps each orbit's points ascending
    order = np.argsort(orbit_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(orbit_of))[:-1]))
    for arr in perms + (reps, order, starts):
        arr.setflags(write=False)
    return gens, perms, reps, order, starts


def compress_to_invariants(K: FiniteGroup, u, m: int, matrix: RationalMatrix, max_points=None) -> RationalMatrix:
    """Compress a K^m operator matrix onto U-conjugation orbit averages.

    ``u`` is a ``Subgroup`` of K (TypeError naming the type otherwise,
    ValueError for a subgroup of another group).  Requires the matrix to
    commute with the conjugation permutation of every element of U
    (ValueError naming the first member that fails otherwise).
    The compressed matrix has one row/column per orbit, C[s][t] =
    (1/|orbit_s|) * sum of entries over orbit_s x orbit_t; the identity
    compresses to the identity and matrix products of commuting matrices are
    preserved.

    Commutation is checked on a generating set of U only: commuting with P_a
    and P_b implies commuting with P_ab, and every member of a finite U is a
    product of generators.  The first generator that fails is the first
    member that fails: the members that commute form a subgroup, which holds
    every member below the first failing one, so the greedy generators below
    it generate no failing member, and it is the next generator.  A
    generator whose permutation fixes every point, such as a central one,
    never fails, so it is not checked, and the first failing one is still
    named.

    Commuting means M[u.a][u.b] = M[a][b], so every row of orbit_s has the same
    sum over orbit_t: C[s][t] is that sum in the row of orbit_s's smallest
    point, summed over the columns grouped by orbit by
    ``RationalMatrix._sum_column_groups``, which keeps the sums exact.
    When U is central in K (trivial, say, or K abelian), or m = 0, every
    orbit is a single point, the fixed vectors are the whole space, and the
    matrix itself is returned once the checks above have passed.
    """
    if not isinstance(u, Subgroup):
        raise TypeError(f"compress_to_invariants needs a Subgroup, got {type(u).__name__}")
    if u.parent != K:
        raise ValueError(f"subgroup of {u.parent.name} does not act on {K.name}")
    m = _integer(m, "m", 0)
    _check_budget("compress_to_invariants on", K, m, cells=True, max_points=max_points)
    dim = K.order ** m
    if not (matrix.rows == dim and matrix.cols == dim):
        raise ValueError(f"matrix must be {dim}x{dim} for m={m}, got {matrix.rows}x{matrix.cols}")
    num = matrix.num
    gens, perms, reps, order, starts = _orbit_structure(weakref.ref(K), u.members, m)
    for elem, perm in zip(gens, perms):
        # both sides are dim x dim, so no shape check is needed
        if not (num[perm[:, None], perm] == num).all():
            raise ValueError(f"matrix does not commute with conjugation by element {elem}")
    if len(reps) == dim:
        return matrix
    return matrix._sum_column_groups(reps, order, starts)


def weak_limit_check(K: FiniteGroup, m: int, m_cyl: int, j: int) -> bool:
    """Whether the block swap theta(m, j) already acts on functions of the
    first m + m_cyl coordinates exactly like the projection onto the first m:

        markov_matrix(theta(m, j), m + m_cyl) == projection_matrix(m, m + m_cyl)

    An entry of each side is n^(m + m_cyl) times the inner product of two
    delta functions of level m + m_cyl, one of them moved by the swap on the
    left, both projected on the right.  For a nontrivial group this holds
    exactly when j >= m_cyl: the finite-level shadow of the block swaps
    converging weakly to the projection.

    The left side only needs the images of x_1..x_(m + m_cyl), so it swaps
    just the first min(j, m_cyl) pairs of the two blocks, which agree with
    theta(m, j) there and fit in m + j + m_cyl coordinates.  Every charge
    is against the default budget, DEFAULT_MAX_POINTS: it bounds the
    n^(m + j + m_cyl) points, and both sides bound their n^(2(m + m_cyl))
    output cells.  The points charge covers the left side's own: the swap's
    support is m + j + min(j, m_cyl) (or 0), so ``markov_matrix`` charges
    n^max(support, m + m_cyl) points, at most the n^(m + j + m_cyl)
    already charged, and its matrix does not depend on a truncation.
    """
    m, m_cyl, j = _integer(m, "m", 0), _integer(m_cyl, "m_cyl", 0), _integer(j, "j", 0)
    level = m + m_cyl
    _check_budget("weak limit over", K, m + j + m_cyl)
    swap = _block_swap(m, min(j, m_cyl), j)
    return markov_matrix(K, swap, level) == projection_matrix(K, m, level)
