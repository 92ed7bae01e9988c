"""Reduced words over a countably infinite family of free generators.

A letter is a pair ``(index, sign)`` with ``index >= 1`` and ``sign`` either
``+1`` or ``-1``.  A word is a tuple of letters with no adjacent
letter/inverse pair.  Every function here returns freely reduced words, so
word equality is plain tuple equality and words can be shared without
copying.  Internally the library computes on code words (signed ints, see
``_encode``); ``Word`` is the one public form.  ``_substitute_codes`` is the
one substitution kernel; a one-letter word returns its image from the map
as it stands.
"""

from __future__ import annotations

__all__ = [
    "EMPTY", "Letter", "Word", "WordSyntaxError", "concat", "format_word", "invert_word",
    "parse_word", "reduce", "substitute",
]

import numbers
import re
import sys
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
            raise ValueError(f"{what} must be an integer, got {_clip(value)}")
        value = int(value)
    if floor is not None and value < floor:
        raise ValueError(f"{what} must be >= {floor}, got {_clip(value)}")
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
            raise ValueError(f"letter sign must be +1 or -1, got {_clip(sign)}")
        if stack:
            top = stack[-1]
            if top[0] == gen and top[1] == -sign:
                pop()
                continue
        append((gen, sign))
    return tuple(stack)


def concat(a: Word, b: Word) -> Word:
    """Product of two reduced words, freely reduced.  A letter wrapper over
    ``_concat_codes``."""
    if not a:
        return b
    if not b:
        return a
    return _decode(_concat_codes(_encode(a), _encode(b)))


def invert_word(a: Word) -> Word:
    """Inverse word: letters reversed, signs flipped."""
    return tuple((gen, -sign) for gen, sign in reversed(a))


def substitute(images: Mapping[int, Word], w: Word) -> Word:
    """Rewrite ``w`` through generator images; generators absent from the
    mapping stay fixed.

    This is the homomorphism sending x_i to ``images[i]``; the result is
    reduced.  A letter wrapper over ``_substitute_codes``, which needs
    reduced code words: ``w`` and the images of the generators it names
    go through ``reduce``, which also refuses a malformed letter, before
    they are encoded, and the result is decoded.
    """
    w = _encode(reduce(w))
    get = images.get
    codes: dict[int, Code] = {}
    for c in w:
        gen = c if c > 0 else -c
        if gen not in codes:
            img = get(gen)
            if img is not None:
                codes[gen] = _encode(reduce(img))
    return _decode(_substitute_codes(codes, w))


# --- code words -------------------------------------------------------------
# Inside the library a reduced word is also carried as a code word: a tuple of
# nonzero ints, +i for x_i and -i for x_i^-1, so a letter cancels the one
# before it exactly when the two codes sum to 0.  Codes never leave the
# library: every public function takes and returns letter words.

Code = tuple[int, ...]


def _encode(w: Word) -> Code:
    """Code word of a reduced letter word."""
    return tuple([gen * sign for gen, sign in w])


def _decode(code: Code) -> Word:
    """Letter word of a code word; the inverse of ``_encode``."""
    return tuple([(c, 1) if c > 0 else (-c, -1) for c in code])


def _invert_code(code: Code) -> Code:
    """Inverse code word: codes reversed and negated."""
    return tuple([-c for c in reversed(code)])


def _concat_codes(a: Code, b: Code) -> Code:
    """Product of two reduced code words, freely reduced.

    Both words are reduced, so codes can cancel only at the junction: the
    end of ``a`` against the start of ``b``.  What survives on each side is
    copied by slicing."""
    n = len(a)
    k = 0  # codes cancelled on each side
    for c in b:
        if k == n or a[n - 1 - k] != -c:
            break
        k += 1
    if not k:
        return a + b
    return a[: n - k] + b[k:]


def _substitute_codes(images: dict[int, Code], w: Code) -> Code:
    """Rewrite the code word ``w`` through a code map; the one substitution
    algorithm of the library.

    ``images`` holds the reduced image of x_i under +i for each generator
    x_i it moves; a positive code absent from it is a fixed letter.  The
    map fills in as it is read: the first time a code -i is met, it stores
    under -i the inverse word of x_i's image, or (-i,) for a fixed x_i,
    so an inverse word is built once per map and only if it is used.

    A one-letter word returns its image from the map as it stands, filled
    the same way for -i; a fixed +i returns ``w``.  Otherwise everything
    is folded onto one output stack.  A fixed letter cancels the top or
    goes on.  An image is reduced, so it can cancel the stack only at its
    junction: its first codes are popped against the top while they
    cancel, and the rest is copied on with one ``extend``.
    """
    get = images.get
    if len(w) == 1:
        c = w[0]
        img = get(c)
        if img is None:
            if c > 0:
                return w
            img = get(-c)
            img = images[c] = w if img is None else _invert_code(img)
        return img
    out: list[int] = []
    pop = out.pop
    append = out.append
    extend = out.extend
    for c in w:
        img = get(c)
        if img is None:
            if c > 0:
                if out and out[-1] == -c:
                    pop()
                else:
                    append(c)
                continue
            img = get(-c)
            img = images[c] = (c,) if img is None else _invert_code(img)
        if out and img and out[-1] == -img[0]:
            pop()
            k = 1
            n = len(img)
            while k < n and out and out[-1] == -img[k]:
                pop()
                k += 1
            extend(img[k:])
        else:
            extend(img)
    return tuple(out)


_TOKEN = re.compile(r"x([0-9]+)(\^-1)?\Z")

# The text tables below each keep at most _TABLE_SIZE entries, and only
# indices of at most _TABLE_DIGITS digits: their memory stays bounded, and
# every kept text converts under any digit limit the interpreter accepts
# (its floor is 640), so none depends on sys.set_int_max_str_digits.
_TABLE_SIZE = 4096
_TABLE_DIGITS = 9
_TABLE_INDEX_BOUND = 10**_TABLE_DIGITS


class _TokenLetters(dict):
    """``parse_word``'s table: a token's (letter, inverse letter), read by
    the regex on first lookup.  A malformed token raises WordSyntaxError
    here, so every refusal keeps its message and its order."""

    __slots__ = ()

    def __missing__(self, token: str) -> tuple[Letter, Letter]:
        match = _TOKEN.match(token)
        if match is None:
            raise WordSyntaxError(f"bad word token {_clip(token)}")
        digits = match.group(1)
        try:
            index = int(digits)
        except ValueError:
            raise WordSyntaxError(
                f"generator index in {_clip(token)} has {_too_many_digits(digits)}"
            ) from None
        if index < 1:
            raise WordSyntaxError(f"generator index must be >= 1 in {_clip(token)}")
        sign = -1 if match.group(2) else 1
        pair = ((index, sign), (index, -sign))
        if len(digits) <= _TABLE_DIGITS and len(self) < _TABLE_SIZE:
            self[token] = pair
        return pair


_TOKEN_LETTERS = _TokenLetters()


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x1 x2^-1"`` and reduce it.

    Tokens are ``x<i>`` or ``x<i>^-1`` with i >= 1; anything else raises
    WordSyntaxError, at the first such token.  Each token's letter and its
    inverse are looked up in a bounded table, filled by the regex on a
    token's first use, and the letters are reduced on one stack as they
    are read, as ``reduce`` does.
    """
    letters = _TOKEN_LETTERS
    stack: list[Letter] = []
    for token in text.split():
        letter, inverse = letters[token]
        if stack and stack[-1] == inverse:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _clip(value) -> str:
    """``repr`` of ``value`` for a message: the one rule for every echo of
    outside input and for every int a refusal prints, so a refusal stays
    one short line however large its input.  A string over 24 characters
    is cut to its first 24 before ``repr``; any other value's ``repr`` over
    24 characters is cut to its first 24.  A cut ends in ``...``.  An int
    past the interpreter's digit limit is rendered by ``_int_text``, and
    another value whose ``repr`` meets one is named by its type."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 24 else f"{value[:24]!r}..."
    try:
        text = repr(value)
    except ValueError:
        text = _int_text(value) if type(value) is int else f"<{type(value).__name__} with a long int>"
    return text if len(text) <= 24 else f"{text[:24]}..."


def _int_text(n: int) -> str:
    """Decimal text of the int ``n``: the renderers' rule, used by
    ``format_word``, ``automorphisms._image_lines`` and, past the digit
    limit, ``_clip``; a refusal prints its ints through ``_clip``.  An int
    with more digits than the interpreter converts to a string
    (``sys.get_int_max_str_digits``) is named by its size instead, as
    ``<5001-digit int>``, after a ``-`` when negative; the digits are
    counted against powers of ten, not read from a string."""
    try:
        return str(n)
    except ValueError:
        # |n| has at most bit_length * log10(2) + 1 digits, and 30103/100000 > log10(2)
        digits = abs(n).bit_length() * 30103 // 100000 + 1
        while abs(n) < 10 ** (digits - 1):
            digits -= 1
        return f"{'-' if n < 0 else ''}<{digits}-digit int>"


def _too_many_digits(digits: str) -> str:
    """Why ``int(digits)`` refused a digit string: its length against the
    interpreter's limit on integer string conversion."""
    return f"{len(digits)} digits, over the limit of {sys.get_int_max_str_digits()}"


def _letter_text(gen, sign) -> str:
    return f"x{_int_text(gen)}" + ("" if sign == 1 else "^-1")


class _LetterTexts(dict):
    """``format_word``'s table: the text of a letter of two ints, made on
    first lookup."""

    __slots__ = ()

    def __missing__(self, letter: tuple[int, int]) -> str:
        text = _letter_text(*letter)
        if -_TABLE_INDEX_BOUND < letter[0] < _TABLE_INDEX_BOUND and len(self) < _TABLE_SIZE:
            self[letter] = text
        return text


_LETTER_TEXTS = _LetterTexts()


def format_word(w: Word) -> str:
    """Render a word in the text form parse_word accepts, for indices
    within the interpreter's digit limit.

    The empty word renders as the empty string.  Every index is written by
    ``_int_text``, so one past the digit limit reads ``x<5001-digit int>``,
    which parse_word refuses.  A letter of two ints takes its text from a
    bounded table; any other letter, such as ``(True, 1)``, ``(1.0, 1)``
    or one of numpy ints, is formatted afresh, since it equals an int
    letter whose text differs or may differ.
    """
    texts = _LETTER_TEXTS
    return " ".join([
        texts[gen, sign] if type(gen) is int and type(sign) is int else _letter_text(gen, sign)
        for gen, sign in w
    ])
