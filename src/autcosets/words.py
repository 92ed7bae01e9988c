"""Reduced words over a countably infinite family of free generators.

A letter is a pair ``(index, sign)`` with ``index >= 1`` and ``sign`` either
``+1`` or ``-1``.  A word is a tuple of letters with no adjacent
letter/inverse pair.  Every function here returns freely reduced words, so
word equality is plain tuple equality and words can be shared without
copying.
"""

from __future__ import annotations

import numbers
import re
from typing import Iterable, Mapping

Letter = tuple[int, int]
Word = tuple[Letter, ...]

EMPTY: Word = ()


class WordSyntaxError(ValueError):
    """Malformed text form of a word."""


def _integer(value, what: str, floor: int | None = None) -> int:
    """``value`` as a Python int, the one rule for integer arguments.

    ``bool`` and non-integers such as 1.7 are refused, not truncated; numpy
    and other ``numbers.Integral`` values become Python ints.  Given a
    ``floor``, a value below it is refused with ``what`` and the floor
    named: this is the one place a constant floor is checked.  Bounds that
    relate two arguments stay with their callers.  ``reduce`` alone accepts
    a plain int letter inline and calls this only for anything else: it
    runs once per letter of every word the library builds, so the common
    case pays no call."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if floor is not None and value < floor:
        raise ValueError(f"{what} must be >= {floor}, got {value}")
    return value


def reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence.

    Idempotent; the empty word is the identity.  Rejects letters whose index
    or sign is not an integer, a non-positive index, or a sign other than
    +1/-1.
    """
    stack: list[Letter] = []
    append = stack.append
    pop = stack.pop
    for gen, sign in letters:
        if not (type(gen) is int and gen >= 1):
            gen = _integer(gen, "generator index", 1)
        if type(sign) is not int:
            sign = _integer(sign, "letter sign")
        if sign != 1 and sign != -1:
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if stack:
            top = stack[-1]
            if top[0] == gen and top[1] == -sign:
                pop()
                continue
        append((gen, sign))
    return tuple(stack)


def concat(a: Word, b: Word) -> Word:
    """Product of two reduced words, freely reduced.

    Both words are reduced, so letters can cancel only at the junction: the
    end of ``a`` against the start of ``b``.  What survives on each side is
    copied by slicing."""
    if not a:
        return b
    if not b:
        return a
    n = len(a)
    k = 0  # letters cancelled on each side
    for gen, sign in b:
        if k == n:
            break
        top = a[n - 1 - k]
        if top[0] != gen or top[1] != -sign:
            break
        k += 1
    if not k:
        return a + b
    return a[: n - k] + b[k:]


def invert_word(a: Word) -> Word:
    """Inverse word: letters reversed, signs flipped."""
    return tuple((gen, -sign) for gen, sign in reversed(a))


def substitute(images: Mapping[int, Word], w: Word) -> Word:
    """Rewrite ``w`` through generator images; generators absent from the
    mapping stay fixed.

    This is the homomorphism sending x_i to ``images[i]``; the result is
    reduced.  Image words must themselves be reduced.

    Everything is folded onto one output stack: a fixed letter goes straight
    on, and an inverse letter walks its image backwards with signs flipped
    inline, so no inverted image word is ever built.
    """
    get = images.get
    stack: list[Letter] = []
    append = stack.append
    pop = stack.pop
    for gen, sign in w:
        img = get(gen)
        if img is None:
            if stack:
                top = stack[-1]
                if top[0] == gen and top[1] == -sign:
                    pop()
                    continue
            append((gen, sign))
        elif sign == 1:
            for letter in img:
                if stack:
                    top = stack[-1]
                    if top[0] == letter[0] and top[1] == -letter[1]:
                        pop()
                        continue
                append(letter)
        else:
            # pushing (g, -s) cancels a top of (g, s)
            for g, s in reversed(img):
                if stack:
                    top = stack[-1]
                    if top[0] == g and top[1] == s:
                        pop()
                        continue
                append((g, -s))
    return tuple(stack)


_TOKEN = re.compile(r"x([0-9]+)(\^-1)?\Z")


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x1 x2^-1"`` and reduce it.

    Tokens are ``x<i>`` or ``x<i>^-1`` with i >= 1; anything else raises
    WordSyntaxError.
    """
    letters: list[Letter] = []
    for token in text.split():
        match = _TOKEN.match(token)
        if match is None:
            raise WordSyntaxError(f"bad word token {token!r}")
        index = int(match.group(1))
        if index < 1:
            raise WordSyntaxError(f"generator index must be >= 1 in {token!r}")
        letters.append((index, -1 if match.group(2) else 1))
    return reduce(letters)


def format_word(w: Word) -> str:
    """Render a word in the same text form parse_word accepts.

    The empty word renders as the empty string.
    """
    return " ".join(f"x{gen}" if sign == 1 else f"x{gen}^-1" for gen, sign in w)


def generator_word(index: int) -> Word:
    """The one-letter word x_index."""
    return ((_integer(index, "generator index", 1), 1),)


def max_generator(w: Word) -> int:
    """Largest generator index occurring in ``w``; 0 for the empty word."""
    return max((gen for gen, _ in w), default=0)
