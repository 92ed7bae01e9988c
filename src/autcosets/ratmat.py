"""Dense matrices over the exact rationals.

A matrix is stored as an integer numerator array ``num`` over one positive
Python-int denominator ``den``, always in lowest terms: gcd(den, every
numerator) == 1, so equal matrices have equal parts.  Numerators are int64
whenever every entry fits, and an operation runs in int64 only when a bound
on its inputs proves that no partial sum can overflow; otherwise it runs on
an object array of Python ints.  No float ever enters.  A product of more
than ``errors.MAX_MATMUL_WORK`` multiply-adds is refused before any work.

The bound travels with the matrix: a matrix the library builds carries an
integer ``_bound`` >= max|num| (not necessarily tight) from what built it --
a product's is bound_a * bound_b * inner, a Markov matrix's is its row
total, a compression's is its input's bound times the points summed -- and
lowest terms divide it by the cancelled gcd.  An operation tries that bound
first and scans the numerators only when it cannot prove int64, so the
int64-versus-Python-int choice is the one an exact scan would make.  A
matrix from outside has no bound until its first use scans one.  A
compression over a central subgroup, whose orbits are single points, is
the matrix itself (``repengine.compress_to_invariants``).
"""

from __future__ import annotations

__all__ = ["RationalMatrix"]

import math
import numbers

import numpy as np

from .errors import MAX_MATMUL_WORK, check_size
from .words import _integer

INT64_MAX = 2**63 - 1


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max())


def int_matmul(a: np.ndarray, b: np.ndarray, bound_a: int, bound_b: int) -> np.ndarray:
    """Exact product of two integer arrays (int64 or Python-int objects),
    given ints ``bound_a`` >= max|a| and ``bound_b`` >= max|b|.

    Runs in int64 only when max|a| * max|b| * inner <= 2^63 - 1, which bounds
    every partial sum; otherwise multiplies Python ints.  The bounds are
    tried first, and the arrays are scanned only when they cannot prove it."""
    if a.dtype != object and b.dtype != object:
        inner = a.shape[1]
        if bound_a * bound_b * inner <= INT64_MAX or _absmax(a) * _absmax(b) * inner <= INT64_MAX:
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


def _over_common_denominator(arr: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Python-int numerators and denominator of arr / den, for an object
    array of ints, numpy integers and Fractions."""
    parts = []
    for x in arr.flat:
        if isinstance(x, bool) or not isinstance(x, numbers.Rational):
            raise TypeError(f"matrix entries must be integers or Fractions, got {type(x).__name__}")
        parts.append((int(x), 1) if isinstance(x, numbers.Integral) else (x.numerator, x.denominator))
    scale = math.lcm(*(q for _, q in parts))
    num = np.array([p * (scale // q) for p, q in parts], dtype=object)
    return num.reshape(arr.shape), den * scale


class RationalMatrix:
    """Immutable matrix of exact rationals supporting exact product and
    equality: ``RationalMatrix(num, den)`` is num / den for a non-empty 2-D
    integer array ``num`` (any integer dtype) or nested lists of integers
    and Fractions, and an integer den >= 1.  Floats, strings and booleans
    are refused, as entries and as den."""

    __slots__ = ("rows", "cols", "num", "den", "_bound")

    def __init__(self, num, den: int = 1):
        # nested lists stay Python objects, so a bool or float among ints
        # is seen before numpy would convert it
        arr = np.array(num) if isinstance(num, np.ndarray) else np.array(num, dtype=object)
        den = _integer(den, "denominator", 1)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"numerators must be a non-empty 2-D array, got shape {arr.shape}")
        if arr.dtype == object:
            if not all(type(x) is int for x in arr.flat):
                arr, den = _over_common_denominator(arr, den)
        elif arr.dtype.kind not in "iu":
            raise TypeError(f"numerators must be integers, got dtype {arr.dtype}")
        elif arr.dtype == np.uint64 or (arr.dtype == np.int64 and arr.min() == -INT64_MAX - 1):
            arr = arr.astype(object)
        else:
            arr = arr.astype(np.int64)
        self._set(arr, den)

    def _set(self, num: np.ndarray, den: int, bound: int | None = None) -> None:
        """Store num/den in lowest terms and the narrowest exact dtype, with
        ``bound`` >= max|num| (None: unknown) divided by the cancelled gcd."""
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(num.ravel())))
            if g != 1:
                num = num // g
                den //= g
                if bound is not None:
                    bound //= g
        if num.dtype == object:
            # int64 when every entry has |x| <= INT64_MAX, else Python ints
            if bound is None or bound > INT64_MAX:
                bound = _absmax(num)
            if bound <= INT64_MAX:
                num = num.astype(np.int64)
        num.setflags(write=False)
        self.num = num
        self.den = den
        self._bound = bound
        self.rows, self.cols = num.shape

    @classmethod
    def _exact(cls, num: np.ndarray, den: int, bound: int | None = None) -> "RationalMatrix":
        """num / den from integer parts the library built itself: a fresh
        non-empty 2-D int64 array with no entry -2^63, or an object array of
        Python ints, an int den >= 1 and, if known, an int ``bound`` >=
        max|num|.  It skips the constructor's checks and copies, which are
        for outside input; ``num`` is taken, not copied, and made read-only."""
        out = cls.__new__(cls)
        out._set(num, den, bound)
        return out

    def _abs_bound(self) -> int:
        """An int >= max|num|: the bound the matrix was built with, or a
        scan of the numerators, stored on first use."""
        bound = self._bound
        if bound is None:
            bound = self._bound = _absmax(self.num)
        return bound

    @property
    def data(self) -> tuple[tuple, ...]:
        """Entries as Fractions, row by row; ``RationalMatrix(M.data) == M``."""
        # imported here: no library path reads Fractions, so importing the
        # package does not load fractions
        from fractions import Fraction

        return tuple(tuple(Fraction(p, self.den) for p in row) for row in self.num.tolist())

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        return cls._exact(np.eye(_integer(dim, "dim", 1), dtype=np.int64), 1, 1)

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        layer = f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
        check_size(layer, self.rows * self.cols * other.cols, "multiply-adds", MAX_MATMUL_WORK)
        bound_a, bound_b = self._abs_bound(), other._abs_bound()
        num = int_matmul(self.num, other.num, bound_a, bound_b)
        return RationalMatrix._exact(num, self.den * other.den, bound_a * bound_b * self.cols)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        # shapes first: arrays of different shapes do not compare elementwise
        a, b = self.num, other.num
        return self.den == other.den and a.shape == b.shape and bool((a == b).all())

    def __hash__(self):
        return hash((self.den, self.num.shape, tuple(self.num.ravel().tolist())))

    def is_doubly_stochastic(self) -> bool:
        """Square, entrywise non-negative, every row and column summing to 1."""
        if self.rows != self.cols:
            return False
        num = self.num
        if num.min() < 0:
            return False
        # a sum of cols entries in [0, max] stays in int64 when max * cols
        # does; entries are non-negative, so the largest is the largest |x|
        cols = self.cols
        if num.dtype != object and self._abs_bound() * cols > INT64_MAX:
            if int(num.max()) * cols > INT64_MAX:
                num = num.astype(object)
        # Python-int lists compare exactly against a den of any size
        ones = [self.den] * cols
        return num.sum(axis=1).tolist() == ones and num.sum(axis=0).tolist() == ones

    def to_strings(self) -> list[list[str]]:
        """Entries in lowest terms as 'p/q' (or 'p') strings, row by row.

        Every entry shares the denominator, so each distinct numerator is
        formatted once and looked up for the cells that repeat it."""
        table = _FractionStrings(self.den)
        return [list(map(table.__getitem__, row)) for row in self.num.tolist()]

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"
