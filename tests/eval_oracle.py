"""Scalar word evaluation and point indexing: the point-by-point oracles for
the broadcast grid ``repengine._grid_eval``, the point order of its flat
tables, and every matrix built on them; the Fraction entries of an exact
matrix, in and out; and a group's JSON form, the round-trip fixture for
``groups.group_from_dict``."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from autcosets.errors import SupportViolation
from autcosets.groups import FiniteGroup
from autcosets.ratmat import RationalMatrix
from autcosets.words import Word


def fraction_matrix(rows) -> RationalMatrix:
    """The matrix with these rows of Fractions (or ints), over the lcm of
    their denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return RationalMatrix(np.array(num, dtype=object), den)


def entries(M: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """M's entries as Fractions, row by row."""
    return tuple(tuple(Fraction(p, M.den) for p in row) for row in M.num.tolist())


def scan_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product that proves its int64 bound by scanning both
    operands on every call: int64 when max|a| * max|b| * inner <= 2^63 - 1,
    else Python ints.  The int64-versus-object choice every exact product
    must make."""
    def absmax(x):
        return int(np.abs(x).max())

    if a.dtype != object and b.dtype != object and absmax(a) * absmax(b) * a.shape[1] <= 2**63 - 1:
        return a @ b
    return a.astype(object) @ b.astype(object)


@functools.lru_cache(maxsize=8)
def _tables(K: FiniteGroup) -> tuple[list, list]:
    """K's multiplication table and inverses as Python lists, read once per group."""
    return K.mul_np.tolist(), K.inv_np.tolist()


def eval_word(K: FiniteGroup, w: Word, point) -> int:
    """Value of a word at a tuple of group elements (coordinate i feeds x_i).

    Letters multiply left to right; inverse letters use the group inverse.
    """
    acc = K.identity
    mul, inv = _tables(K)
    size = len(point)
    for gen, sign in w:
        if gen > size:
            raise SupportViolation(f"word mentions x{gen} but the point has {size} coordinates")
        k = point[gen - 1]
        acc = mul[acc][k if sign == 1 else inv[k]]
    return acc


class TupleIndex:
    """Bijection between d-tuples over 0..n-1 and the integers 0..n^d - 1.

    Coordinate 1 is the least significant digit:
    index = point[0] + point[1]*n + ... + point[d-1]*n^(d-1).
    """

    __slots__ = ("n", "d", "n_points")

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError(f"base must be >= 1, got {n}")
        if d < 0:
            raise ValueError(f"tuple length must be >= 0, got {d}")
        self.n = n
        self.d = d
        self.n_points = n ** d

    def encode(self, point: Sequence[int]) -> int:
        if len(point) != self.d:
            raise ValueError(f"expected a {self.d}-tuple, got length {len(point)}")
        index = 0
        for c in range(self.d - 1, -1, -1):
            x = point[c]
            if not 0 <= x < self.n:
                raise ValueError(f"coordinate {x} out of range 0..{self.n - 1}")
            index = index * self.n + x
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_points:
            raise ValueError(f"index {index} out of range 0..{self.n_points - 1}")
        out = []
        for _ in range(self.d):
            index, digit = divmod(index, self.n)
            out.append(digit)
        return tuple(out)

    def digit(self, index: int, coord: int) -> int:
        """Coordinate ``coord`` (1-based) of the point with this index."""
        if not 1 <= coord <= self.d:
            raise ValueError(f"coordinate {coord} out of range 1..{self.d}")
        return (index // self.n ** (coord - 1)) % self.n


def group_to_dict(k: FiniteGroup) -> dict:
    """The JSON form ``groups.group_from_dict`` reads: order, table and unit."""
    return {"order": k.order, "mul": k.mul_np.tolist(), "unit": k.identity}
