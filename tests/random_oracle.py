"""Left-composition fold: the oracle for ``random_automorphism``.

Each Nielsen move is built as an automorphism and composed onto the left of
the whole map as it is drawn, re-substituting every image once per move.
The draws are the library's: the same ``rng`` calls in the same order."""

from __future__ import annotations

import random

from autcosets.automorphisms import (
    Endomorphism,
    compose_endomorphisms,
    nielsen_invert,
    nielsen_right_mult,
    nielsen_swap,
)


def oracle_random_pair(m_fix: int, max_index: int, length: int, seed: int):
    """(forward, inverse) endomorphisms of the product of ``length`` random
    moves on x_(m_fix+1) .. x_max_index, the last move drawn acting last."""
    rng = random.Random(seed)
    indices = list(range(m_fix + 1, max_index + 1))
    fwd = inv = Endomorphism()
    for _ in range(length):
        if len(indices) == 1:
            kind = "invert"
        else:
            kind = rng.choice(("swap", "invert", "right_mult"))
        if kind == "invert":
            move = nielsen_invert(rng.choice(indices))
        else:
            i, j = rng.sample(indices, 2)
            move = nielsen_swap(i, j) if kind == "swap" else nielsen_right_mult(i, j)
        fwd = compose_endomorphisms(move.fwd, fwd)
        inv = compose_endomorphisms(inv, move.inv)
    return fwd, inv
