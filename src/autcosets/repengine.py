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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .automorphisms import Automorphism
from .errors import SizeLimitError, SupportViolation
from .groups import FiniteGroup, Subgroup, TupleIndex
from .ratmat import RationalMatrix, int_matmul
from .words import Word

DEFAULT_MAX_POINTS = 10_000_000


def _point_budget(max_points) -> int:
    if max_points is None:
        return DEFAULT_MAX_POINTS
    budget = int(max_points)
    if budget < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    return budget


def _check_points(count: int, max_points, what: str) -> None:
    budget = _point_budget(max_points)
    if count > budget:
        raise SizeLimitError(f"{what} enumerates {count} points, over the budget of {budget}")


def _check_cells(dim: int, max_points, layer: str) -> None:
    """Bound the dim x dim output of ``layer`` by the same point budget."""
    budget = _point_budget(max_points)
    if dim * dim > budget:
        raise SizeLimitError(
            f"{layer} needs a {dim}x{dim} matrix ({dim * dim} cells), over the budget of {budget}"
        )


def eval_word(K: FiniteGroup, w: Word, point) -> int:
    """Value of a word at a tuple of group elements (coordinate i feeds x_i).

    Letters multiply left to right; inverse letters use the group inverse.
    """
    acc = K.identity
    mul = K.mul
    inv = K.inv
    size = len(point)
    for gen, sign in w:
        if gen > size:
            raise SupportViolation(f"word mentions x{gen} but the point has {size} coordinates")
        k = point[gen - 1]
        acc = mul[acc][k if sign == 1 else inv[k]]
    return acc


def _bulk_eval(K: FiniteGroup, w: Word, n_coords: int, pts: np.ndarray) -> np.ndarray:
    """eval_word at every point of K^n_coords at once; ``pts`` is the
    precomputed arange of point indices."""
    n = K.order
    mul = K.mul_np
    inv = K.inv_np
    acc = np.full(len(pts), K.identity, dtype=np.int32)
    for gen, sign in w:
        if gen > n_coords:
            raise SupportViolation(f"word mentions x{gen} but points have {n_coords} coordinates")
        stride = n ** (gen - 1)
        coord = ((pts // stride) % n).astype(np.int32)
        if sign < 0:
            coord = inv[coord]
        acc = mul[acc, coord]
    return acc


class ActionMap:
    """Bijection of K^n_coords induced by an automorphism, tabulated on
    point indices (TupleIndex order)."""

    __slots__ = ("group", "n_coords", "table")

    def __init__(self, group: FiniteGroup, n_coords: int, table: np.ndarray):
        self.group = group
        self.n_coords = n_coords
        self.table = table

    def __call__(self, point):
        ti = TupleIndex(self.group.order, self.n_coords)
        return ti.decode(int(self.table[ti.encode(point)]))

    def __repr__(self):
        return f"ActionMap({self.group.name!r}, n_coords={self.n_coords})"


def action_map(K: FiniteGroup, g: Automorphism, n_coords: int, max_points=None) -> ActionMap:
    """Point map of ``g`` on K^n_coords, verified to be a bijection.

    Requires the support of g to fit inside the first n_coords generators.
    Composites reverse: the point map of compose(g, h) is the point map of
    g followed by the point map of h.
    """
    if g.support_bound() > n_coords:
        raise SupportViolation(
            f"automorphism moves x{g.support_bound()} but points have {n_coords} coordinates"
        )
    n = K.order
    npts = n ** n_coords
    _check_points(npts, max_points, f"action on {K.name}^{n_coords}")
    pts = np.arange(npts, dtype=np.int64)
    table = np.zeros(npts, dtype=np.int64)
    for i in range(1, n_coords + 1):
        col = _bulk_eval(K, g.image(i), n_coords, pts)
        table += col.astype(np.int64) * (n ** (i - 1))
    counts = np.bincount(table, minlength=npts)
    if not np.all(counts == 1):
        raise ValueError("induced point map is not a bijection")
    table.setflags(write=False)
    return ActionMap(K, n_coords, table)


def markov_matrix(
    K: FiniteGroup, g: Automorphism, m: int, truncation=None, max_points=None
) -> RationalMatrix:
    """Exact transition matrix of the averaged action of ``g`` on K^m.

    Entry [a][b] is the fraction of uniform extensions of the m-tuple a to
    K^N whose image under the point action starts with the m-tuple b, where
    N defaults to max(support bound, m).  Rows and columns are indexed by
    TupleIndex codes.  The result is doubly stochastic, equals the identity
    for automorphisms fixing x_1..x_m, and does not change if ``truncation``
    raises N further.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    bound = max(g.support_bound(), m)
    n_coords = bound if truncation is None else int(truncation)
    if n_coords < bound:
        raise SupportViolation(f"truncation {truncation} is below the required bound {bound}")
    n = K.order
    npts = n ** n_coords
    _check_points(npts, max_points, f"averaging over {K.name}^{n_coords}")
    dim = n ** m
    _check_cells(dim, max_points, f"markov_matrix on {K.name}^{m}")
    pts = np.arange(npts, dtype=np.int64)
    rows = pts % dim
    cols = np.zeros(npts, dtype=np.int64)
    for i in range(1, m + 1):
        col = _bulk_eval(K, g.image(i), n_coords, pts)
        cols += col.astype(np.int64) * (n ** (i - 1))
    counts = np.bincount(rows * dim + cols, minlength=dim * dim).reshape(dim, dim)
    return RationalMatrix.from_numerators(counts, n ** (n_coords - m))


def projection_matrix(K: FiniteGroup, m: int, n_coords: int, max_points=None) -> RationalMatrix:
    """Matrix on K^n_coords of the conditional expectation onto functions of
    the first m coordinates: entry [p][q] = n^-(N-m) when p and q agree in
    coordinates 1..m, else 0.  Dense — quadratic in the point count."""
    if m < 0 or n_coords < m:
        raise ValueError("need 0 <= m <= n_coords")
    n = K.order
    npts = n ** n_coords
    _check_points(npts, max_points, f"projection on {K.name}^{n_coords}")
    _check_cells(npts, max_points, f"projection_matrix on {K.name}^{n_coords}")
    head = np.arange(npts, dtype=np.int64) % n ** m
    same_head = (head[:, None] == head[None, :]).astype(np.int64)
    return RationalMatrix.from_numerators(same_head, n ** (n_coords - m))


def _conjugation_perm(K: FiniteGroup, u: int, m: int) -> np.ndarray:
    """Point permutation of K^m sending each coordinate k to u k u^-1."""
    n = K.order
    dim = n ** m
    pts = np.arange(dim, dtype=np.int64)
    out = np.zeros(dim, dtype=np.int64)
    mul = K.mul_np
    iu = K.inv[u]
    for c in range(m):
        digit = ((pts // n ** c) % n).astype(np.int32)
        conj = mul[mul[u, digit], iu]
        out += conj.astype(np.int64) * (n ** c)
    return out


def _members(K: FiniteGroup, u) -> tuple[int, ...]:
    return u.members if isinstance(u, Subgroup) else Subgroup(K, u).members


def _orbit_ids(perms: list[np.ndarray], dim: int) -> np.ndarray:
    """Orbit id of every point, orbits numbered by their smallest point.

    ``perms`` are the point permutations of the non-unit elements of a whole
    subgroup, so the orbit of p is p together with its images under them."""
    first = np.arange(dim, dtype=np.int64)
    for perm in perms:
        np.minimum(first, perm, out=first)
    return np.unique(first, return_inverse=True)[1]


def conjugation_orbits(K: FiniteGroup, u, m: int, max_points=None):
    """Orbits of the diagonal conjugation action of the subgroup U on the
    points of K^m.

    Returns (orbit_of, orbits): orbit_of[p] is the orbit id of point p, and
    orbits is the list of orbits (sorted tuples), ordered by smallest member.
    """
    members = _members(K, u)
    dim = K.order ** m
    _check_points(dim, max_points, f"orbits on {K.name}^{m}")
    perms = [_conjugation_perm(K, elem, m) for elem in members if elem != K.identity]
    orbit_of = _orbit_ids(perms, dim)
    orbits = [tuple(np.flatnonzero(orbit_of == oid).tolist()) for oid in range(orbit_of.max() + 1)]
    return orbit_of.tolist(), orbits


def compress_to_invariants(K: FiniteGroup, u, m: int, matrix: RationalMatrix, max_points=None) -> RationalMatrix:
    """Compress a K^m operator matrix onto U-conjugation orbit averages.

    Requires the matrix to commute with the conjugation permutation of every
    element of U (ValueError otherwise).  The compressed matrix has one
    row/column per orbit, C[s][t] = (1/|orbit_s|) * sum of entries over
    orbit_s x orbit_t; the identity compresses to the identity and matrix
    products of commuting matrices are preserved.

    With S the orbit-indicator matrix and L the lcm of the orbit sizes, the
    numerators are (L/|orbit_s|)-scaled rows of S num S^T over den * L.
    """
    members = _members(K, u)
    dim = K.order ** m
    if not (matrix.rows == dim and matrix.cols == dim):
        raise ValueError(f"matrix must be {dim}x{dim} for m={m}, got {matrix.rows}x{matrix.cols}")
    _check_points(dim, max_points, f"compression on {K.name}^{m}")
    _check_cells(dim, max_points, f"compress_to_invariants on {K.name}^{m}")
    num = matrix.num
    perms = []
    for elem in members:
        if elem == K.identity:
            continue
        perm = _conjugation_perm(K, elem, m)
        if not np.array_equal(num[perm][:, perm], num):
            raise ValueError(f"matrix does not commute with conjugation by element {elem}")
        perms.append(perm)
    orbit_of = _orbit_ids(perms, dim)
    sizes = np.bincount(orbit_of)
    lcm = math.lcm(*sizes.tolist())
    indicator = np.zeros((len(sizes), dim), dtype=np.int64)
    indicator[orbit_of, np.arange(dim)] = 1
    scaled = indicator * (lcm // sizes)[:, None]
    compressed = int_matmul(int_matmul(scaled, num), indicator.T)
    return RationalMatrix.from_numerators(compressed, matrix.den * lcm)


@dataclass(frozen=True)
class CylinderFunction:
    """Function on infinite K-sequences depending only on the first
    ``level`` coordinates; values are listed in TupleIndex order."""

    level: int
    values: tuple

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))


def _check_cylinder(K: FiniteGroup, f: CylinderFunction) -> None:
    expected = K.order ** f.level
    if len(f.values) != expected:
        raise ValueError(f"level-{f.level} cylinder over {K.name} needs {expected} values")


def delta_cylinder(K: FiniteGroup, point) -> CylinderFunction:
    """Indicator of one point of K^len(point), as a cylinder function."""
    level = len(point)
    ti = TupleIndex(K.order, level)
    hot = ti.encode(tuple(point))
    one = Fraction(1)
    zero = Fraction(0)
    return CylinderFunction(level, tuple(one if i == hot else zero for i in range(ti.n_points)))


def cylinder_inner_product(K: FiniteGroup, n_coords: int, f: CylinderFunction, fp: CylinderFunction, max_points=None) -> Fraction:
    """Average of f * fp over K^n_coords under the uniform measure.

    n_coords must cover both levels; the value does not depend on it beyond
    that, so it is evaluated at the deeper of the two levels."""
    _check_cylinder(K, f)
    _check_cylinder(K, fp)
    depth = max(f.level, fp.level)
    if n_coords < depth:
        raise ValueError(f"n_coords {n_coords} below the cylinder level {depth}")
    n = K.order
    _check_points(n ** depth, max_points, f"inner product over {K.name}^{depth}")
    dim_f = n ** f.level
    dim_fp = n ** fp.level
    total = Fraction(0)
    for idx in range(n ** depth):
        total += f.values[idx % dim_f] * fp.values[idx % dim_fp]
    return total / n ** depth


def project_cylinder(K: FiniteGroup, m: int, f: CylinderFunction) -> CylinderFunction:
    """Conditional expectation onto the first m coordinates; drops the level
    to m (no-op when the level is already <= m)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    _check_cylinder(K, f)
    if f.level <= m:
        return f
    n = K.order
    dim = n ** m
    tail = n ** (f.level - m)
    scale = Fraction(1, tail)
    values = tuple(
        scale * sum(f.values[a + t * dim] for t in range(tail)) for a in range(dim)
    )
    return CylinderFunction(m, values)


def translate_by_permutation(
    K: FiniteGroup, mapping: Mapping[int, int], f: CylinderFunction, n_coords: int, max_points=None
) -> CylinderFunction:
    """Pull a cylinder function back along a coordinate permutation:

        result(k_1..k_N) = f(k_p(1), ..., k_p(level))

    where p is ``mapping`` extended by the identity.  This is the operator
    induced by the permutation automorphism even when the permutation moves
    coordinates beyond n_coords, as long as p(c) <= n_coords for every
    c <= f.level."""
    _check_cylinder(K, f)
    moved = {}
    for key, val in mapping.items():
        key = int(key)
        val = int(val)
        if key < 1 or val < 1:
            raise ValueError("coordinate permutation indices must be >= 1")
        if key != val:
            moved[key] = val
    if set(moved.values()) != set(moved) or len(set(moved.values())) != len(moved):
        raise ValueError("mapping is not a permutation of its moved coordinates")
    sources = [moved.get(c, c) for c in range(1, f.level + 1)]
    if any(src > n_coords for src in sources):
        raise SupportViolation(
            f"permutation needs coordinate {max(sources)} but only {n_coords} are available"
        )
    n = K.order
    npts = n ** n_coords
    _check_points(npts, max_points, f"translation over {K.name}^{n_coords}")
    values = []
    for idx in range(npts):
        fidx = 0
        for c in range(f.level - 1, -1, -1):
            digit = (idx // n ** (sources[c] - 1)) % n
            fidx = fidx * n + digit
        values.append(f.values[fidx])
    return CylinderFunction(n_coords, tuple(values))


def weak_limit_check(K: FiniteGroup, m: int, m_cyl: int, j: int, max_points=None) -> bool:
    """Whether the block swap theta(m, j) already acts on level-(m + m_cyl)
    cylinder functions exactly like the projection onto the first m
    coordinates:

        <T(theta(m,j)) f_a, f_b> == <P f_a, P f_b>

    for all pairs of delta functions of K^(m + m_cyl), with inner products
    over K^(m + j + m_cyl).  For a nontrivial group this holds exactly when
    j >= m_cyl — the finite-level shadow of the block swaps converging
    weakly to the projection."""
    if m < 0 or m_cyl < 0 or j < 0:
        raise ValueError("block parameters must be non-negative")
    n = K.order
    level = m + m_cyl
    n_coords = m + j + m_cyl
    _check_points(n ** n_coords, max_points, f"weak limit over {K.name}^{n_coords}")
    swap: dict[int, int] = {}
    for k in range(1, j + 1):
        swap[m + k] = m + j + k
        swap[m + j + k] = m + k
    ti = TupleIndex(n, level)
    deltas = [delta_cylinder(K, ti.decode(i)) for i in range(ti.n_points)]
    translated = [
        translate_by_permutation(K, swap, d, n_coords, max_points=max_points) for d in deltas
    ]
    projected = [project_cylinder(K, m, d) for d in deltas]
    for a in range(len(deltas)):
        for b in range(len(deltas)):
            lhs = cylinder_inner_product(K, n_coords, translated[a], deltas[b], max_points=max_points)
            rhs = cylinder_inner_product(K, n_coords, projected[a], projected[b], max_points=max_points)
            if lhs != rhs:
                return False
    return True
