"""Dense matrices over the exact rationals.

A matrix is stored as an integer numerator array ``num`` over one positive
Python-int denominator ``den``, always in lowest terms: gcd(den, every
numerator) == 1, so equal matrices have equal parts.  Numerators are int64
whenever every entry fits, and an operation runs in int64 only when a bound
on its inputs proves that no partial sum can overflow; otherwise it runs on
an object array of Python ints.  No float ever enters.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable

import numpy as np

INT64_MAX = 2**63 - 1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"matrix entries must be Fraction, int, or 'p/q' string, got {type(x).__name__}")


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max())


def _narrow(a: np.ndarray) -> np.ndarray:
    """int64 when every entry has |x| <= INT64_MAX, else Python ints."""
    if a.dtype == object and _absmax(a) <= INT64_MAX:
        return a.astype(np.int64)
    return a


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer arrays (int64 or Python-int objects).

    Runs in int64 only when max|a| * max|b| * inner <= 2^63 - 1, which bounds
    every partial sum; otherwise multiplies Python ints."""
    if a.dtype != object and b.dtype != object and _absmax(a) * _absmax(b) * a.shape[1] <= INT64_MAX:
        return a @ b
    return a.astype(object) @ b.astype(object)


class _FractionStrings(dict):
    """str(Fraction(p, den)) for numerators p, formatted on first lookup."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, p: int) -> str:
        g = math.gcd(p, self.den)
        text = str(p // g) if g == self.den else f"{p // g}/{self.den // g}"
        self[p] = text
        return text


class RationalMatrix:
    """Immutable matrix of exact rationals supporting exact product and
    equality.  Entries may be given as Fraction, int (not bool), or "p/q"
    strings; ``from_numerators`` builds one from an integer array and a
    denominator."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows_data: Iterable[Iterable]):
        rows = [[_as_fraction(x) for x in row] for row in rows_data]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        den = math.lcm(*(x.denominator for row in rows for x in row))
        num = np.array(
            [[x.numerator * (den // x.denominator) for x in row] for row in rows], dtype=object
        )
        self._set(num, den)

    def _set(self, num: np.ndarray, den: int) -> None:
        """Store num/den in lowest terms and the narrowest exact dtype."""
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(num.ravel())))
            if g != 1:
                num = num // g
                den //= g
        num = _narrow(num)
        num.setflags(write=False)
        self.num = num
        self.den = den
        self.rows, self.cols = num.shape

    @classmethod
    def _exact(cls, num: np.ndarray, den: int) -> "RationalMatrix":
        out = cls.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def from_numerators(cls, num, den: int = 1) -> "RationalMatrix":
        """The matrix num / den for a 2-D integer array ``num`` and an
        integer den >= 1; floats and booleans are rejected."""
        arr = np.array(num)
        den = operator.index(den)
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"numerators must be a non-empty 2-D array, got shape {arr.shape}")
        if arr.dtype == object:
            if not all(type(x) is int for x in arr.flat):
                raise TypeError("numerators must be Python ints")
        elif arr.dtype.kind not in "iu":
            raise TypeError(f"numerators must be integers, got dtype {arr.dtype}")
        elif arr.dtype == np.uint64 or (arr.dtype == np.int64 and arr.min() == -INT64_MAX - 1):
            arr = arr.astype(object)
        else:
            arr = arr.astype(np.int64)
        return cls._exact(arr, den)

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        return cls.from_numerators(np.eye(dim, dtype=np.int64))

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entries as Fractions, row by row."""
        return tuple(tuple(Fraction(p, self.den) for p in row) for row in self.num.tolist())

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.num[i, j]), self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.den) for p in self.num[i].tolist())

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._exact(self.num.T, self.den)

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return RationalMatrix._exact(int_matmul(self.num, other.num), self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.den == other.den and bool(np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.den, self.num.shape, tuple(self.num.ravel().tolist())))

    def is_doubly_stochastic(self) -> bool:
        """Square, entrywise non-negative, every row and column summing to 1."""
        if self.rows != self.cols:
            return False
        num = self.num
        if (num < 0).any():
            return False
        if self.den > INT64_MAX or _absmax(num) * self.cols > INT64_MAX:
            num = num.astype(object)
        return bool((num.sum(axis=1) == self.den).all() and (num.sum(axis=0) == self.den).all())

    def to_strings(self) -> list[list[str]]:
        """Entries in lowest terms as 'p/q' (or 'p') strings, row by row.

        Every entry shares the denominator, so each distinct numerator is
        formatted once and looked up for the cells that repeat it."""
        table = _FractionStrings(self.den)
        return [list(map(table.__getitem__, row)) for row in self.num.tolist()]

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"
