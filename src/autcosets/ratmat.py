"""Dense matrices over the exact rationals.

A matrix is stored as an integer numerator array ``num`` over one positive
Python-int denominator ``den``, always in lowest terms: gcd(den, every
numerator) == 1, so equal matrices have equal parts.  Numerators are int64
whenever every entry fits, and an operation runs in int64 only when a bound
on its inputs proves that no partial sum can overflow; otherwise it runs on
an object array of Python ints.  No float ever enters.  A product of more
than ``errors.MAX_MATMUL_WORK`` multiply-adds is refused before any work.

The bound travels with the matrix: every matrix carries an integer
``_bound`` >= max|num| (not necessarily tight) from what built it -- the
constructor's is one scan of its input, a product's is bound_a * bound_b *
inner, a Markov matrix's is its row total, a compression's is its input's
bound times its column count -- and lowest terms divide it by the cancelled
gcd.  Only this module chooses between int64 and Python ints: an operation
tries the bound first and scans the numerators only when it cannot prove
int64, so the choice is the one an exact scan would make.  ``int_matmul``
proves a product from its two arrays, and ``_summable`` proves every sum of
one array's entries, for ``is_doubly_stochastic`` and the orbit sums of
``_sum_column_groups``.  A compression over a central subgroup, whose
orbits are single points, is the matrix itself
(``repengine.compress_to_invariants``).
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


def _summable(arr: np.ndarray, bound: int, terms: int) -> np.ndarray:
    """``arr``, as Python ints unless int64 holds every sum of ``terms`` of
    its entries, given an int ``bound`` >= max|arr|.

    Such a sum stays in int64 when max|arr| * terms <= 2^63 - 1: the bound
    is tried first, and the array is scanned only when it cannot prove it."""
    if arr.dtype == object or bound * terms <= INT64_MAX or _absmax(arr) * terms <= INT64_MAX:
        return arr
    return arr.astype(object)


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
    equality: ``RationalMatrix(num, den)`` is num / den for a non-empty 2-D
    integer array ``num`` (any integer dtype) or nested lists of integers
    and Fractions, and an integer den >= 1.  Floats, strings and booleans
    are refused, as entries and as den."""

    __slots__ = ("rows", "cols", "num", "den", "_bound")

    def __init__(self, num, den: int = 1):
        # every input becomes one array of Python objects, so an ndarray's
        # integers are Python ints and a bool, float or string is refused by
        # its type; the entries are brought over one common denominator, and
        # _set narrows the numerators to int64 when every one fits, which the
        # one exact scan here decides
        arr = np.array(num, dtype=object)
        den = _integer(den, "denominator", 1)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"numerators must be a non-empty 2-D array, got shape {arr.shape}")
        parts = []
        for x in arr.flat:
            if isinstance(x, bool) or not isinstance(x, numbers.Rational):
                raise TypeError(f"matrix entries must be integers or Fractions, got {type(x).__name__}")
            parts.append((int(x), 1) if isinstance(x, numbers.Integral) else (x.numerator, x.denominator))
        scale = math.lcm(*(q for _, q in parts))
        num = np.array([p * (scale // q) for p, q in parts], dtype=object).reshape(arr.shape)
        self._set(num, den * scale, _absmax(num))

    def _set(self, num: np.ndarray, den: int, bound: int) -> None:
        """Store num/den in lowest terms and the narrowest exact dtype, with
        the int ``bound`` >= max|num| divided by the cancelled gcd.  A bound
        past int64 must be exact (max|num| itself): it alone decides an
        object array's dtype, and it stays exact through the division."""
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(num.ravel())))
            if g != 1:
                num = num // g
                den //= g
                bound //= g
        # int64 when every entry has |x| <= INT64_MAX, else Python ints
        if num.dtype == object and bound <= INT64_MAX:
            num = num.astype(np.int64)
        num.setflags(write=False)
        self.num = num
        self.den = den
        self._bound = bound
        self.rows, self.cols = num.shape

    @classmethod
    def _exact(cls, num: np.ndarray, den: int, bound: int) -> "RationalMatrix":
        """num / den from integer parts the library built itself: a fresh
        non-empty 2-D int64 array with no entry -2^63, or an object array of
        Python ints, an int den >= 1 and an int ``bound`` >= max|num|.  It
        skips the constructor's checks and copies, which are for outside
        input; ``num`` is taken, not copied, and made read-only.  A bound
        from arithmetic may be loose, so past int64 an object array is
        scanned for the exact one, which then decides its dtype."""
        if num.dtype == object and bound > INT64_MAX:
            bound = _absmax(num)
        out = cls.__new__(cls)
        out._set(num, den, bound)
        return out

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
        check_size(
            lambda: f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}",
            self.rows * self.cols * other.cols, "multiply-adds", MAX_MATMUL_WORK,
        )
        num = int_matmul(self.num, other.num, self._bound, other._bound)
        return RationalMatrix._exact(num, self.den * other.den, self._bound * other._bound * self.cols)

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
        if self.rows != self.cols or self.num.min() < 0:
            return False
        num = _summable(self.num, self._bound, self.cols)
        # Python-int lists compare exactly against a den of any size
        ones = [self.den] * self.cols
        return num.sum(axis=1).tolist() == ones and num.sum(axis=0).tolist() == ones

    def _sum_column_groups(self, rows: np.ndarray, order: np.ndarray, starts: np.ndarray):
        """The matrix over the same denominator whose entry [s][t] sums row
        ``rows[s]`` over the columns ``order[starts[t]:starts[t + 1]]`` (the
        last group runs to the end of ``order``), by ``np.add.reduceat``.

        A sum has at most ``cols`` terms, so ``_summable`` proves it and the
        result's bound is this matrix's bound times ``cols``."""
        bound, cols = self._bound, self.cols
        block = _summable(self.num[rows[:, None], order], bound, cols)
        return RationalMatrix._exact(np.add.reduceat(block, starts, axis=1), self.den, bound * cols)

    def to_strings(self) -> list[list[str]]:
        """Entries in lowest terms as 'p/q' (or 'p') strings, row by row.

        Every entry shares the denominator, so each distinct numerator is
        formatted once and looked up for the cells that repeat it."""
        table = _FractionStrings(self.den)
        return [list(map(table.__getitem__, row)) for row in self.num.tolist()]

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"
