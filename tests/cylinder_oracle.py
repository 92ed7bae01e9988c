"""Cylinder functions with Fraction values, evaluated by explicit
enumeration: the independent oracle for ``repengine.weak_limit_check``.

A cylinder function depends only on the first ``level`` coordinates of an
infinite K-sequence.  The swap-to-projection check is recomputed here from
its definition: delta functions are translated by the block swap, projected
by averaging, and compared through inner products over K^(m + j + m_cyl).
Every loop runs in pure Python, so keep the levels small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from autcosets.errors import SupportViolation
from autcosets.groups import FiniteGroup
from eval_oracle import TupleIndex


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


def cylinder_inner_product(K: FiniteGroup, n_coords: int, f: CylinderFunction, fp: CylinderFunction) -> Fraction:
    """Average of f * fp over K^n_coords under the uniform measure.

    n_coords must cover both levels; the value does not depend on it beyond
    that, so it is evaluated at the deeper of the two levels."""
    _check_cylinder(K, f)
    _check_cylinder(K, fp)
    depth = max(f.level, fp.level)
    if n_coords < depth:
        raise ValueError(f"n_coords {n_coords} below the cylinder level {depth}")
    n = K.order
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
    K: FiniteGroup, mapping: Mapping[int, int], f: CylinderFunction, n_coords: int
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
    values = []
    for idx in range(n ** n_coords):
        fidx = 0
        for c in range(f.level - 1, -1, -1):
            digit = (idx // n ** (sources[c] - 1)) % n
            fidx = fidx * n + digit
        values.append(f.values[fidx])
    return CylinderFunction(n_coords, tuple(values))


def cylinder_weak_limit(K: FiniteGroup, m: int, m_cyl: int, j: int) -> bool:
    """Whether <T(theta(m,j)) f_a, f_b> == <P f_a, P f_b> for all pairs of
    delta functions of K^(m + m_cyl), with inner products over
    K^(m + j + m_cyl)."""
    if m < 0 or m_cyl < 0 or j < 0:
        raise ValueError("block parameters must be non-negative")
    n = K.order
    level = m + m_cyl
    n_coords = m + j + m_cyl
    swap: dict[int, int] = {}
    for k in range(1, j + 1):
        swap[m + k] = m + j + k
        swap[m + j + k] = m + k
    ti = TupleIndex(n, level)
    deltas = [delta_cylinder(K, ti.decode(i)) for i in range(ti.n_points)]
    translated = [translate_by_permutation(K, swap, d, n_coords) for d in deltas]
    projected = [project_cylinder(K, m, d) for d in deltas]
    for a in range(len(deltas)):
        for b in range(len(deltas)):
            lhs = cylinder_inner_product(K, n_coords, translated[a], deltas[b])
            rhs = cylinder_inner_product(K, n_coords, projected[a], projected[b])
            if lhs != rhs:
                return False
    return True
