"""Scalar word evaluation: the point-by-point oracle for the broadcast grid
``repengine._grid_eval`` and every matrix built on it."""

from __future__ import annotations

import functools

from autcosets.errors import SupportViolation
from autcosets.groups import FiniteGroup
from autcosets.words import Word


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
