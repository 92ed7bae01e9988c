"""Word layer.  The oracle is a naive quadratic reducer that rescans the
whole sequence after every cancellation."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from autcosets import words as words_module
from autcosets.words import (
    EMPTY,
    WordSyntaxError,
    _decode,
    _encode,
    _invert_code,
    _substitute_codes,
    concat,
    format_word,
    invert_word,
    parse_word,
    reduce,
    substitute,
)
from substitute_oracle import letter_substitute


def naive_reduce(letters):
    out = [tuple(letter) for letter in letters]
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


letters_st = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), max_size=40
)


@given(letters_st)
def test_reduce_matches_naive_oracle(seq):
    assert reduce(seq) == naive_reduce(seq)


@given(letters_st)
def test_reduce_idempotent_and_fully_reduced(seq):
    w = reduce(seq)
    assert reduce(w) == w
    assert all(
        not (w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1])
        for i in range(len(w) - 1)
    )


@given(letters_st, letters_st)
def test_concat_matches_reduction_of_concatenation(a, b):
    wa, wb = reduce(a), reduce(b)
    assert concat(wa, wb) == naive_reduce(list(wa) + list(wb))


def stack_concat(a, b):
    """Product of two reduced words by pushing b's letters one at a time
    onto a stack holding a: the oracle for concat's junction cancelling."""
    stack = list(a)
    for letter in b:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@st.composite
def word_pairs(draw):
    """Two reduced words: unrelated, inverse (full cancellation), b starting
    with the inverse of a suffix of a (partial overlap), or one side empty."""
    a = reduce(draw(letters_st))
    tail = reduce(draw(letters_st))
    kind = draw(st.sampled_from(("random", "inverse", "overlap", "empty")))
    if kind == "random":
        b = tail
    elif kind == "inverse":
        b = invert_word(a)
    elif kind == "overlap":
        b = reduce(invert_word(a)[: draw(st.integers(0, len(a)))] + tail)
    else:
        b = ()
    return (b, a) if draw(st.booleans()) else (a, b)


@given(word_pairs())
def test_concat_matches_letter_stack_oracle(pair):
    a, b = pair
    assert concat(a, b) == stack_concat(a, b)


@given(letters_st, letters_st, letters_st)
def test_concat_associative(a, b, c):
    wa, wb, wc = reduce(a), reduce(b), reduce(c)
    assert concat(concat(wa, wb), wc) == concat(wa, concat(wb, wc))


@given(letters_st)
def test_identity_and_inverse_laws(seq):
    w = reduce(seq)
    assert concat(w, EMPTY) == w
    assert concat(EMPTY, w) == w
    assert concat(w, invert_word(w)) == EMPTY
    assert concat(invert_word(w), w) == EMPTY
    assert invert_word(invert_word(w)) == w


def test_reduce_frozen_cases():
    assert reduce([]) == ()
    assert reduce([(1, 1), (1, -1)]) == ()
    assert reduce([(1, 1), (2, 1), (2, -1), (3, 1)]) == ((1, 1), (3, 1))
    assert reduce([(2, -1), (1, 1), (1, -1), (2, 1)]) == ()
    assert reduce([(1, 1), (1, 1)]) == ((1, 1), (1, 1))


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce([(0, 1)])
    with pytest.raises(ValueError):
        reduce([(-2, -1)])
    with pytest.raises(ValueError):
        reduce([(1, 2)])
    with pytest.raises(ValueError):
        reduce([(1, 0)])


@pytest.mark.parametrize("letter", [(2.5, 1), (2.0, 1), (True, 1), ("2", 1), (2, 1.0), (2, True)])
def test_reduce_refuses_non_integer_letters(letter):
    with pytest.raises(ValueError, match="must be an integer"):
        reduce([letter])


def test_reduce_takes_numpy_integers_as_python_ints():
    word = reduce([(np.int64(2), np.int32(-1))])
    assert word == ((2, -1),)
    assert all(type(x) is int for x in word[0])


def test_parse_frozen_cases():
    assert parse_word("x1 x2^-1") == ((1, 1), (2, -1))
    assert parse_word("") == ()
    assert parse_word("   ") == ()
    assert parse_word("x3") == ((3, 1),)
    assert parse_word("x12^-1") == ((12, -1),)
    # parsing reduces
    assert parse_word("x1 x1^-1") == ()
    assert parse_word("x2 x2") == ((2, 1), (2, 1))


@pytest.mark.parametrize(
    "text",
    ["x0", "x0^-1", "x", "y1", "x1^1", "x1^-2", "x-1", "x1^", "1", "x1x2", "X1"],
)
def test_parse_rejects_bad_tokens(text):
    with pytest.raises(WordSyntaxError):
        parse_word(text)


def test_parse_names_an_index_over_the_digit_limit(int_digit_limit):
    # a WordSyntaxError naming the token, cut short
    digits = "9" * (int_digit_limit + 700)
    for token in ("x" + digits, "x" + digits + "^-1"):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("x1 " + token)
        assert str(exc.value) == (
            f"generator index in {token[:24]!r}... has {len(digits)} digits, "
            f"over the limit of {int_digit_limit}"
        )


@given(letters_st)
def test_format_parse_roundtrip(seq):
    w = reduce(seq)
    assert parse_word(format_word(w)) == w


def test_format_frozen():
    assert format_word(()) == ""
    assert format_word(((1, 1), (2, -1), (10, 1))) == "x1 x2^-1 x10"


# --- the text tables ----------------------------------------------------------


@pytest.fixture()
def fresh_tables(monkeypatch):
    """Empty token and letter tables for one test, so it sees them fill."""
    monkeypatch.setattr(words_module, "_TOKEN_LETTERS", words_module._TokenLetters())
    monkeypatch.setattr(words_module, "_LETTER_TEXTS", words_module._LetterTexts())


@pytest.mark.parametrize(
    "first, second",
    [((1, "x1"), (True, "xTrue")), ((True, "xTrue"), (1, "x1")),
     ((1, "x1"), (1.0, "x1.0")), ((1.0, "x1.0"), (1, "x1"))],
)
def test_a_letter_equal_to_a_kept_one_keeps_its_own_text(fresh_tables, first, second):
    # (True, 1) == (1, 1) == (1.0, 1), yet each renders as it always has
    for gen, text in (first, second, first):
        assert format_word(((gen, 1),)) == text
        assert format_word(((gen, -1), (2, 1))) == f"{text}^-1 x2"


def test_numpy_letters_keep_their_text(fresh_tables):
    assert format_word(((3, 1), (2, -1))) == "x3 x2^-1"
    assert format_word(((np.int64(3), 1), (np.int32(2), np.int64(-1)))) == "x3 x2^-1"
    assert format_word(((3, True),)) == "x3"


def test_a_long_index_is_named_the_same_before_and_after_the_tables_warm(
    fresh_tables, int_digit_limit
):
    long_token = "x" + "9" * (int_digit_limit + 1)
    want = (
        f"generator index in {long_token[:24]!r}... has {int_digit_limit + 1} digits, "
        f"over the limit of {int_digit_limit}"
    )
    big = 10**int_digit_limit
    for _ in range(2):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("x1 x2^-1 " + long_token)
        assert str(exc.value) == want
        assert format_word(((1, 1), (big, -1))) == f"x1 x<{int_digit_limit + 1}-digit int>^-1"
        # warm both tables with short tokens and letters, then ask again
        assert parse_word("x1 x2^-1 x123456789 x123456789^-1") == ((1, 1), (2, -1))
        assert format_word(((1, 1), (2, -1), (123456789, 1))) == "x1 x2^-1 x123456789"


def test_a_kept_text_never_outlives_a_lower_digit_limit(fresh_tables, int_digit_limit):
    # a 700-digit index converts under the default limit, but not under the
    # interpreter's floor of 640: the tables keep no text that long
    digits = "1" * 700
    index = int(digits)
    assert parse_word(f"x{digits}") == ((index, 1),)
    assert format_word(((index, 1),)) == f"x{digits}"
    sys.set_int_max_str_digits(640)  # the fixture restores the limit
    with pytest.raises(WordSyntaxError, match="has 700 digits, over the limit of 640"):
        parse_word(f"x{digits}")
    assert format_word(((index, 1),)) == "x<700-digit int>"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0", "generator index must be >= 1 in 'x0'"),
        ("x0^-1", "generator index must be >= 1 in 'x0^-1'"),
        ("x", "bad word token 'x'"),
        ("y1", "bad word token 'y1'"),
        ("x1^1", "bad word token 'x1^1'"),
        ("x1^-2", "bad word token 'x1^-2'"),
        ("x-1", "bad word token 'x-1'"),
        ("x1^", "bad word token 'x1^'"),
        ("1", "bad word token '1'"),
        ("x1x2", "bad word token 'x1x2'"),
        ("X1", "bad word token 'X1'"),
    ],
)
def test_a_bad_token_keeps_its_message_after_valid_ones(fresh_tables, text, message):
    for prefix in ("", "x1 x1 ", "x1 x1^-1 ", "x1 x1 "):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(prefix + text)
        assert str(exc.value) == message
    # the first bad token is the one refused, wherever the valid ones are
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(f"x1 {text} x1 y2")
    assert str(exc.value) == message


def test_the_tables_stay_within_their_bound(fresh_tables):
    count = 5000
    assert count > words_module._TABLE_SIZE
    text = " ".join(f"x{i}" for i in range(1, count + 1))
    word = tuple((i, 1) for i in range(1, count + 1))
    for _ in range(2):
        assert parse_word(text) == word
        assert format_word(word) == text
    assert len(words_module._TOKEN_LETTERS) == words_module._TABLE_SIZE
    assert len(words_module._LETTER_TEXTS) == words_module._TABLE_SIZE


@given(st.lists(st.tuples(st.integers(1, 10**12), st.sampled_from((1, -1))), max_size=12))
def test_parse_reduces_on_one_stack_as_reduce_does(seq):
    # tokens of indices past the tables' 9 digits take the regex path alone
    text = " ".join(f"x{gen}" + ("" if sign == 1 else "^-1") for gen, sign in seq)
    assert parse_word(text) == reduce(seq)


def test_substitute_frozen():
    images = {1: ((1, 1), (2, 1))}
    assert substitute(images, ((1, -1),)) == ((2, -1), (1, -1))
    assert substitute(images, ((3, 1),)) == ((3, 1),)
    # x1 -> x2, applied to x2^-1 x1 x2 gives x2^-1 x2 x2 = x2
    assert substitute({1: ((2, 1),)}, ((2, -1), (1, 1), (2, 1))) == ((2, 1),)
    # cancellation across pieces, including inverted images
    images = {1: ((2, 1), (3, 1)), 2: ((3, -1), (2, -1))}
    assert substitute(images, ((1, 1), (2, 1))) == ()
    assert substitute(images, ((2, -1), (1, -1))) == ()
    # fixed letters cancel against the ends of plain and inverted images
    images = {1: ((2, 1), (3, 1))}
    assert substitute(images, ((1, 1), (3, -1))) == ((2, 1),)
    assert substitute(images, ((1, -1), (2, 1))) == ((3, -1),)
    assert substitute(images, ((2, -1), (1, 1))) == ((3, 1),)


def naive_substitute(images, w):
    """Expand each letter to its image (inverted image for an inverse
    letter), then reduce the whole expansion at once."""
    out = []
    for gen, sign in w:
        img = images.get(gen, ((gen, 1),))
        out.extend(img if sign == 1 else [(g, -s) for g, s in reversed(img)])
    return naive_reduce(out)


# images over a three-letter alphabet cancel across pieces often
images_st = st.dictionaries(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=6).map(reduce),
    max_size=5,
)
inverse_heavy_st = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from((-1, -1, -1, 1))), max_size=40
)


@given(images_st, st.one_of(letters_st, inverse_heavy_st))
def test_substitute_matches_naive_oracle(images, seq):
    assert substitute(images, seq) == naive_substitute(images, seq)
    w = reduce(seq)
    assert substitute(images, w) == naive_substitute(images, w)


@given(letters_st, letters_st)
def test_substitute_is_a_homomorphism(a, b):
    images = {1: ((2, 1), (3, -1)), 2: ((1, 1), (1, 1)), 4: ()}
    wa, wb = reduce(a), reduce(b)
    assert substitute(images, concat(wa, wb)) == concat(
        substitute(images, wa), substitute(images, wb)
    )
    assert substitute(images, invert_word(wa)) == invert_word(substitute(images, wa))


# --- the code-word kernel --------------------------------------------------
# ``substitute`` runs on ``_substitute_codes``, which cancels only at the
# junction of each image; the letter-by-letter loop it replaced is the oracle.

short_word_st = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=5
).map(reduce)
JUNCTION_KINDS = ("empty", "identity", "random", "inverse", "suffix", "prefix")


@st.composite
def junction_maps(draw):
    """Reduced image maps on x1..x5 whose images are empty, the identity,
    random, or built against an earlier image so that substituting x_a x_b
    or x_a^-1 x_b cancels part or all of the earlier one at the junction:
    its inverse word, the inverse of one of its suffixes, or one of its
    prefixes, each followed by a random tail."""
    images = {}
    keys = draw(st.permutations(range(1, 6)))
    for key in keys[: draw(st.integers(0, 5))]:
        kind = draw(st.sampled_from(JUNCTION_KINDS))
        earlier = [word for word in images.values() if word]
        if kind == "empty":
            images[key] = ()
        elif kind == "identity":
            images[key] = ((key, 1),)
        elif kind == "random" or not earlier:
            images[key] = draw(short_word_st)
        else:
            other = draw(st.sampled_from(earlier))
            cut = draw(st.integers(0, len(other)))
            tail = draw(short_word_st)
            if kind == "inverse":
                images[key] = invert_word(other)
            elif kind == "suffix":
                images[key] = concat(invert_word(other[cut:]), tail)
            else:
                images[key] = concat(other[:cut], tail)
    return images


word_over_keys_st = st.lists(st.tuples(st.integers(1, 6), st.sampled_from((1, -1))), max_size=12)


def code_map(images, inverses):
    """The kernel's map: each image under +i and, with ``inverses``, its
    inverse word under -i filled in advance."""
    codes = {}
    for key, word in images.items():
        codes[key] = _encode(word)
        if inverses:
            codes[-key] = _encode(invert_word(word))
    return codes


@given(junction_maps(), word_over_keys_st)
@example({1: (), 2: ((2, 1),)}, [(1, 1), (2, -1), (1, -1), (3, 1)])
@example({1: ((2, 1), (3, 1)), 2: ((3, -1), (2, -1))}, [(1, 1), (2, 1), (4, 1)])
@example({1: ((2, 1), (3, 1)), 2: ((3, -1), (1, 1))}, [(1, 1), (2, 1)])
@example({1: ((2, 1), (3, 1)), 2: ((2, 1), (1, 1))}, [(1, -1), (2, 1)])
@example({1: ((2, 1),), 2: ((2, -1), (3, 1))}, [(2, -1), (1, 1), (2, 1)])
# one-letter words: +i moved, +i fixed, -i moved, -i fixed, empty images
@example({1: ((2, 1), (3, -1))}, [(1, 1)])
@example({1: ((2, 1),)}, [(2, 1)])
@example({1: ((2, 1), (3, -1))}, [(1, -1)])
@example({1: ((2, 1),)}, [(3, -1)])
@example({1: ()}, [(1, 1)])
@example({1: ()}, [(1, -1)])
def test_kernel_matches_the_letter_loop(images, seq):
    want = letter_substitute(images, seq)
    assert substitute(images, seq) == want
    w = reduce(seq)
    assert substitute(images, w) == letter_substitute(images, w)
    for inverses in (False, True):
        codes = code_map(images, inverses)
        assert _decode(_substitute_codes(codes, _encode(w))) == letter_substitute(images, w)
        # the map filled in only inverse words: x_i^-1's under -i, or -i if x_i is fixed
        for key, code in codes.items():
            word = images.get(abs(key), ((abs(key), 1),))
            assert _decode(code) == (word if key > 0 else invert_word(word))
        # and a filled map gives the same result again
        assert _decode(_substitute_codes(codes, _encode(w))) == letter_substitute(images, w)


# image words as callers may pass them: unreduced, over a small alphabet
unreduced_images_st = st.dictionaries(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=6).map(tuple),
    max_size=5,
)


@given(unreduced_images_st, word_over_keys_st)
@example({1: ((1, 1), (1, -1))}, [(1, 1)])
@example({1: ((2, 1), (2, -1), (3, 1))}, [(3, -1), (1, 1)])
def test_substitute_reduces_unreduced_images(images, seq):
    # the images are reduced before the kernel reads them
    assert substitute(images, seq) == letter_substitute(images, seq)


def test_substitute_reduces_and_checks_its_images():
    assert substitute({1: ((1, 1), (1, -1))}, ((1, 1),)) == ()
    # encoded without reduce, (1, 2) would be the code 2, that is x2
    with pytest.raises(ValueError, match=r"^letter sign must be \+1 or -1, got 2$"):
        substitute({1: ((1, 2),)}, ((1, 1),))
    with pytest.raises(ValueError, match=r"^letter sign must be \+1 or -1, got 2$"):
        substitute({}, ((1, 2),))


@given(letters_st)
def test_code_words_round_trip(seq):
    w = reduce(seq)
    code = _encode(w)
    assert type(code) is tuple and 0 not in code
    assert _decode(code) == w and _encode(_decode(code)) == code
    assert _invert_code(code) == _encode(invert_word(w))
    assert _decode(_invert_code(code)) == invert_word(w)
