"""Inverse-pair verification: the one-sided check against the two-sided
oracle, the verifying call sites in ``cosets``, and the words they build
without re-reduction."""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autcosets.automorphisms as automorphisms
import autcosets.cosets as cosets
import autcosets.words as words
from autcosets.automorphisms import (
    Automorphism,
    Endomorphism,
    InverseVerificationError,
    _endomorphism,
    compose,
    compose_endomorphisms,
    random_automorphism,
    verify_inverse_pair,
)
from autcosets.cosets import (
    block_size,
    coset_product,
    product_formula_direct,
    stability_witness,
    theta,
    witness_left,
    witness_right,
)
from autcosets.errors import SupportViolation
from autcosets.words import _decode, _encode, invert_word
from substitute_oracle import letter_substitute

# --- the two-sided oracle ---------------------------------------------------
# The check as it stood before the one-sided version: both composites in
# full, each filled and then cleared of x_i -> x_i entries, on letter words
# through the letter-by-letter substitution oracle.


def oracle_compose(a: Endomorphism, b: Endomorphism) -> dict:
    a_images, b_images = a.images, b.images
    images = {}
    for key, word in b_images.items():
        images[key] = letter_substitute(a_images, word)
    for key, word in a_images.items():
        if key not in b_images:
            images[key] = word
    return {key: word for key, word in images.items() if word != ((key, 1),)}


def oracle_verify_inverse_pair(f: Endomorphism, g: Endomorphism) -> bool:
    return not oracle_compose(f, g) and not oracle_compose(g, f)


MAX_INDEX = 6
aut_st = st.builds(
    lambda m_fix, seed, length: random_automorphism(m_fix, MAX_INDEX, length, seed),
    st.integers(0, 2),
    st.integers(0, 10_000),
    st.integers(0, 12),
)
letter_st = st.tuples(st.integers(1, MAX_INDEX), st.sampled_from((1, -1)))
endo_st = st.dictionaries(
    st.integers(1, MAX_INDEX), st.lists(letter_st, max_size=6), max_size=MAX_INDEX
).map(Endomorphism)


def pair_st(aut):
    """(fwd, inv) or (inv, fwd) of one automorphism: the check runs both ways."""
    return st.sampled_from(((aut.fwd, aut.inv), (aut.inv, aut.fwd)))


def _change_letter(e: Endomorphism, draw) -> Endomorphism:
    images = e.images
    if not images:
        return Endomorphism({1: [(2, 1)]})
    key = draw(st.sampled_from(sorted(images)))
    word = list(images[key])
    if not word:
        word = [(1, 1)]
    else:
        pos = draw(st.integers(0, len(word) - 1))
        gen, sign = word[pos]
        word[pos] = draw(st.sampled_from([(gen, -sign), (gen % MAX_INDEX + 1, sign)]))
    images[key] = word
    return Endomorphism(images)


def _swap_images(e: Endomorphism, draw) -> Endomorphism:
    i, j = draw(st.lists(st.integers(1, MAX_INDEX), min_size=2, max_size=2, unique=True))
    images = e.images
    images[i], images[j] = e.image(j), e.image(i)
    return Endomorphism(images)


def _drop_key(e: Endomorphism, draw) -> Endomorphism:
    images = e.images
    if images:
        del images[draw(st.sampled_from(sorted(images)))]
    return Endomorphism(images)


def _mutate_one_side(mutation):
    @st.composite
    def build(draw):
        f, g = draw(aut_st.flatmap(pair_st))
        if draw(st.booleans()):
            return mutation(f, draw), g
        return f, mutation(g, draw)

    return build()


FAMILIES = {
    "true pairs": aut_st.flatmap(pair_st),
    "one letter changed": _mutate_one_side(_change_letter),
    "two images swapped": _mutate_one_side(_swap_images),
    "a key dropped": _mutate_one_side(_drop_key),
    "(f, f)": aut_st.map(lambda a: (a.fwd, a.fwd)),
    "random endomorphisms": st.tuples(endo_st, endo_st),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
@settings(max_examples=150)
def test_one_sided_check_equals_the_two_sided_oracle(family, data):
    f, g = data.draw(FAMILIES[family])
    assert verify_inverse_pair(f, g) == oracle_verify_inverse_pair(f, g)


def test_one_sided_check_stops_at_the_first_wrong_image(monkeypatch):
    # g moves x1..x5 and f is the identity, so the very first image is wrong
    f = Endomorphism()
    g = Endomorphism({k: [(k, -1)] for k in range(1, 6)})
    calls = []

    real = automorphisms._substitute_codes

    def counting(images, word):
        calls.append(word)
        return real(images, word)

    monkeypatch.setattr(automorphisms, "_substitute_codes", counting)
    assert not verify_inverse_pair(f, g)
    assert len(calls) == 1
    # a generator f moves and g fixes is refused before any substitution
    calls.clear()
    assert not verify_inverse_pair(Endomorphism({7: [(7, -1)]}), g)
    assert calls == []


@given(endo_st, endo_st)
def test_compose_endomorphisms_matches_the_two_pass_build(a, b):
    got = compose_endomorphisms(a, b)
    want = oracle_compose(a, b)
    # same images in the same order, and no x_i -> x_i entry
    assert list(got.images.items()) == list(want.items())
    assert got == Endomorphism(got.images)


# --- the verifying call sites ---------------------------------------------

G, H = random_automorphism(1, 4, 10, 7), random_automorphism(1, 4, 10, 8)
R = random_automorphism(1, 4, 6, 9)
M = 1
N = block_size(M, G, H, R)


def _wrong(codes: dict) -> dict:
    """The code map ``codes`` with its first image replaced by its inverse
    word: still reduced, and a map it forms sends that generator to the
    inverse of its true image, so no pair holding it is mutually inverse."""
    key = next(iter(codes))
    return {**codes, key: _encode(invert_word(_decode(codes[key])))}


def _codes(images: dict) -> dict:
    return {key: _encode(word) for key, word in images.items()}


def test_built_pair_refuses_a_wrong_inverse():
    # the cosets call sites hand code maps to _endomorphism and verify the
    # pair through the public constructor
    fwd, inv = _codes(G.fwd.images), _codes(G.inv.images)
    assert Automorphism(_endomorphism(fwd), _endomorphism(inv)) == G
    with pytest.raises(InverseVerificationError, match="do not compose to the identity"):
        Automorphism(_endomorphism(fwd), _endomorphism(_wrong(inv)))
    with pytest.raises(InverseVerificationError, match="do not compose to the identity"):
        Automorphism(_endomorphism(_wrong(fwd)), _endomorphism(inv))


def test_call_sites_verify_what_they_build(monkeypatch):
    # every pair cosets builds by substitution goes through Automorphism(...);
    # corrupting its inverse half there must surface as a refusal
    real = cosets.Automorphism
    seen = []

    def wrong_inverse(fwd, inv):
        seen.append(inv)
        return real(fwd, _endomorphism(_wrong(inv._codes)))

    monkeypatch.setattr(cosets, "Automorphism", wrong_inverse)
    with pytest.raises(InverseVerificationError):
        product_formula_direct(M, N, G, H)
    with pytest.raises(InverseVerificationError):
        witness_left(M, N, R, G, H)
    with pytest.raises(InverseVerificationError):
        witness_right(M, N, R, G, H)
    assert len(seen) == 3


def test_direct_formula_verifies_a_wrong_pattern(monkeypatch):
    real = cosets._pattern_images
    built = []

    def wrong_second_half(m, n, outer, inner):
        images = real(m, n, outer, inner)
        built.append(images)
        return _wrong(images) if len(built) == 2 else images

    monkeypatch.setattr(cosets, "_pattern_images", wrong_second_half)
    with pytest.raises(InverseVerificationError):
        product_formula_direct(M, N, G, H)
    assert len(built) == 2


@contextlib.contextmanager
def recording_reduce():
    """Record every ``words.reduce`` call, under each name the library binds
    it to, while the context is open."""
    calls = []
    real = words.reduce

    def spy(letters):
        calls.append(letters)
        return real(letters)

    with pytest.MonkeyPatch.context() as mp:
        for module in (words, automorphisms, cosets):
            if hasattr(module, "reduce"):
                mp.setattr(module, "reduce", spy)
        yield calls


def test_reduce_spy_sees_the_public_constructor():
    # the trust boundary still reduces, so the spy below is live
    with recording_reduce() as calls:
        automorphisms.Automorphism(G.fwd.images, G.inv.images)
    assert calls


@given(aut_st, aut_st, st.integers(0, 10_000), st.integers(0, 12))
@settings(max_examples=30)
def test_library_built_words_are_not_reduced_again(g, h, seed, length):
    m = 2
    r = random_automorphism(m, MAX_INDEX, length, seed)
    n = block_size(m, g, h, r)
    rep = compose(g, compose(theta(m, n), h))
    with recording_reduce() as calls:
        assert product_formula_direct(m, n, g, h) == rep
        witness_left(m, n, r, g, h)
        witness_right(m, n, r, g, h)
        stability_witness(m, n, 1, g, h)
    assert calls == []


# --- witness_right and deferred inverses ----------------------------------


def test_witness_right_leaves_g_inverse_deferred():
    q = random_automorphism(1, 4, 6, 3)
    g = coset_product(M, G, H).rep  # a composite: its inverse is deferred
    h = random_automorphism(1, 4, 10, 4)
    n = block_size(M, g, h, q)
    assert type(g._inv) is tuple
    got = witness_right(M, n, q, g, h)
    assert type(g._inv) is tuple
    # g's support is still checked: here it reaches past m + n
    small = block_size(M, q, h)
    assert g.support_bound() > M + small
    with pytest.raises(SupportViolation):
        witness_right(M, small, q, g, h)
    assert type(g._inv) is tuple
    # the left witness of q^-1 against (h^-1, g^-1), as it was built before
    want = witness_left(M, n, q.inverse(), h.inverse(), g.inverse())
    assert got == want and got.inv == want.inv
