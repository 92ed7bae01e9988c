"""Scalar word evaluation: the point-by-point oracle for the broadcast grid
``repengine._grid_eval`` and every matrix built on it."""

from __future__ import annotations

from autcosets.errors import SupportViolation
from autcosets.groups import FiniteGroup
from autcosets.words import Word


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
