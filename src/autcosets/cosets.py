"""Block-stabilized products of free-group automorphisms.

Fix m >= 0 and let H be the pointwise stabilizer of x_1..x_m.  Two
automorphisms g, h are multiplied by first pushing their supports apart with
the block swap ``theta(m, N)`` (N large enough to cover both supports) and
then composing:

    product representative = g . theta(m, N) . h        (h acts first)

The resulting double coset H*rep*H does not depend on the choice of N, which
is what makes this an associative product on cosets; ``stability_witness``
returns the pair of permutations realizing that independence, and
``witness_left`` / ``witness_right`` produce the stabilizer elements that
absorb H-factors sitting between g and h.  ``star_product`` is the variant
with a trailing block swap, invariant on conjugacy classes, and
``tuple_product`` runs k coordinates through one shared block swap.

Block layout used throughout, for given m and N:

    x block: 1..m          (never moved by theta)
    y block: m+1..m+N
    z block: m+N+1..m+2N

Every block swap is built by ``_block_swap(base, size, offset)``:
``theta(m, N)`` swaps y and z, ``stability_witness`` swaps the padding
with the block above it, and ``repengine.weak_limit_check`` swaps the pairs
of theta it reads.  Each of them passes two disjoint blocks, so the
builder checks none.  It names the renaming and hands it to
``automorphisms._permutation``, the one permutation builder, which
``stability_witness`` also uses for its renaming pi; a swap is an
involution, so both its halves are one Endomorphism.  Each swap is built
once per (base, size, offset) and shared through a 32-shape LRU cache, and
as a left factor it composes by renaming, not through the substitution
kernel.  The three products take theta's swap from ``_block_swap``
itself: ``block_size`` has already made the one check ``theta`` would
repeat.  The pairs that ``product_formula_direct`` and the witnesses
build by substitution start from a copy of the images of ``theta``'s
swap (``_block_mapping``), so ``theta`` bounds their n too; they are code
maps, become Endomorphisms through ``_endomorphism`` and are verified by
the public ``Automorphism(fwd, inv)``.
"""

from __future__ import annotations

__all__ = [
    "ConjClassRep", "DoubleCosetRep", "TupleRep", "block_size", "coset_product",
    "product_formula_direct", "stability_witness", "star_product", "star_vs_pair_check", "theta",
    "tuple_product", "witness_left", "witness_right",
]

import functools
from dataclasses import dataclass, field

from .automorphisms import (
    Automorphism,
    Endomorphism,
    _endomorphism,
    _image_code,
    _permutation,
    _require_automorphism,
    compose,
    identity_automorphism,
    is_in_H,
)
from .errors import MAX_BLOCK_SIZE, SupportViolation, check_size
from .words import Code, _clip, _integer, _substitute_codes


# 32 shapes: a pass of each benchmark workload meets at most 19, and a
# smaller cache would evict within the cli workload's cycle of shapes
@functools.lru_cache(maxsize=32)
def _block_swap(base: int, size: int, offset: int) -> Automorphism:
    """Involution swapping x_{base+k} <-> x_{base+offset+k} for k = 1..size,
    every other generator fixed.  The one constructor of block swaps.

    Built once per shape and shared: the swap is immutable, and it
    composes on the left through its rename table, which passes fixed
    letters through without storing them, so what it keeps does not grow.

    Precondition: offset >= size, so the two blocks do not overlap (an
    overlapping pair of images would not be an automorphism).  Every
    caller meets it: ``theta`` passes (j, j), the three products (n, n),
    ``stability_witness`` (p, n + p) and ``repengine.weak_limit_check``
    (min(j, m_cyl), j)."""
    swap: dict[int, int] = {}
    for k in range(base + 1, base + size + 1):
        swap[k] = k + offset
        swap[k + offset] = k
    return _permutation(swap)


def theta(m: int, j: int) -> Automorphism:
    """Involution fixing x_1..x_m and swapping x_{m+k} <-> x_{m+j+k} for
    k = 1..j.  theta(m, 0) is the identity.

    Raises SizeLimitError for j over MAX_BLOCK_SIZE."""
    m, j = _integer(m, "m", 0), _integer(j, "j", 0)
    check_size(lambda: "block swap theta", j, "generators per block", MAX_BLOCK_SIZE)
    return _block_swap(m, j, j)


def block_size(m: int, *autos: Automorphism) -> int:
    """Smallest N >= 0 such that every argument is supported on 1..m+N.

    Raises TypeError for an argument that is not an Automorphism, and
    SizeLimitError for N over MAX_BLOCK_SIZE, before any block swap is
    built."""
    m = top = _integer(m, "m", 0)
    for a in autos:
        _require_automorphism(a, "block_size")
        bound = a.support_bound()
        if bound > top:
            top = bound
    n = top - m
    check_size(lambda: "block size of the coset product", n, "generators per block", MAX_BLOCK_SIZE)
    return n


def _require_support(layer: str, m: int, n: int, *autos: Automorphism) -> None:
    """Refuse, for ``layer``, an argument that is not an Automorphism
    (TypeError) or that moves a generator above m + n (SupportViolation)."""
    for a in autos:
        _require_automorphism(a, layer)
        if a.support_bound() > m + n:
            raise SupportViolation(
                f"automorphism moves generators above {_clip(m + n)} "
                f"(support bound {_clip(a.support_bound())})"
            )


@dataclass(frozen=True)
class DoubleCosetRep:
    """A two-sided H-coset, carried by a concrete representative.

    ``block`` records the stabilized block size N the representative was
    built with; it is bookkeeping, not part of the value, so it is excluded
    from equality.
    """

    m: int
    rep: Automorphism
    block: int = field(compare=False)


@dataclass(frozen=True)
class ConjClassRep:
    """An H-conjugation orbit of cosets, carried by a representative."""

    m: int
    rep: Automorphism
    block: int = field(compare=False)


@dataclass(frozen=True)
class TupleRep:
    """A k-tuple of coset representatives sharing one block size."""

    m: int
    reps: tuple[Automorphism, ...]
    block: int = field(compare=False)


def coset_product(m: int, g: Automorphism, h: Automorphism) -> DoubleCosetRep:
    """Product of the cosets HgH and HhH, as a representative.

    Uses the canonical block size N = block_size(m, g, h)."""
    m = _integer(m, "m")
    n = block_size(m, g, h)
    rep = compose(g, compose(_block_swap(m, n, n), h))
    return DoubleCosetRep(m, rep, n)


def _block_mapping(m: int, n: int, outer: Endomorphism) -> dict[int, Code]:
    """Code map sending x_j (j <= m) to outer's x_j-image and renaming the
    y block to the z block, for factors supported on 1..m+n.

    It starts from a copy of the images of the shared swap theta(m, n),
    whose z -> y half no such factor reads; a copy, because the kernel
    stores inverse words in the map it reads.  ``theta`` refuses an n over
    MAX_BLOCK_SIZE, so the cache never keeps a swap larger than that.  Only
    the keys <= m that outer moves are added, so the cost follows them,
    not m."""
    mapping = dict(theta(m, n).fwd._codes)
    mapping.update((i, code) for i, code in outer._codes.items() if i <= m)
    return mapping


def _pattern_images(m: int, n: int, outer: Endomorphism, inner: Endomorphism) -> dict[int, Code]:
    """Code images of the two-factor disjoint-block pattern.

    The inner factor's images on the x and y blocks are rewritten by
    ``_block_mapping``; the z block then receives the outer factor's
    y-images verbatim.  An x_j that neither factor moves is fixed, so the
    x block visits only the keys <= m that either factor moves, in
    ascending order: the images keep the keys and order of a walk over
    1..m, less the fixed ones, which the Endomorphism drops anyway.
    """
    mapping = _block_mapping(m, n, outer)
    images: dict[int, Code] = {}
    for i in sorted({i for e in (outer, inner) for i in e._codes if i <= m}):
        images[i] = _substitute_codes(mapping, _image_code(inner, i))
    for k in range(m + 1, m + n + 1):
        images[k] = _substitute_codes(mapping, _image_code(inner, k))
        images[k + n] = _image_code(outer, k)
    return images


def product_formula_direct(m: int, n: int, g: Automorphism, h: Automorphism) -> Automorphism:
    """The coset-product representative computed by direct substitution over
    the block layout, never calling the composition engine.

    Cross-checks coset_product: for n = block_size(m, g, h) the two agree
    exactly.  The inverse is built from the same pattern with the factors
    inverted and swapped, and the pair is verified: that check is part of
    the cross-check.
    """
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    _require_support("product_formula_direct", m, n, g, h)
    fwd = _pattern_images(m, n, g.fwd, h.fwd)
    inv = _pattern_images(m, n, h.inv, g.inv)
    return Automorphism(_endomorphism(fwd), _endomorphism(inv))


def witness_left(m: int, n: int, r: Automorphism, g: Automorphism, h: Automorphism) -> Automorphism:
    """Stabilizer element r_box absorbing an H-factor r inserted between the
    block swap and h:

        g . theta(m,n) . r . h  =  r_box . (g . theta(m,n) . h)

    (composition right-to-left: h acts first).  Requires r in H, and r, g, h
    supported on 1..m+n.  r_box moves only the z block: its image of
    x_{m+n+k} is r's image of x_{m+k} rewritten by x_j -> g(x_j),
    x_{m+t} -> x_{m+n+t}; it depends only on r and g, with h entering the
    identity but not the construction."""
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    _require_support("witness_left", m, n, r, g, h)
    if not is_in_H(r, m):
        raise SupportViolation("witness factor must fix x_1..x_m")
    mapping = _block_mapping(m, n, g.fwd)
    y_block = range(m + 1, m + n + 1)
    fwd = {k + n: _substitute_codes(mapping, _image_code(r.fwd, k)) for k in y_block}
    inv = {k + n: _substitute_codes(mapping, _image_code(r.inv, k)) for k in y_block}
    # built by substitution rather than composition, so the pair is verified
    return Automorphism(_endomorphism(fwd), _endomorphism(inv))


def witness_right(m: int, n: int, q: Automorphism, g: Automorphism, h: Automorphism) -> Automorphism:
    """Stabilizer element q_tri absorbing an H-factor q inserted between g
    and the block swap:

        g . q . theta(m,n) . h  =  (g . theta(m,n) . h) . q_tri^-1

    Obtained from witness_left by passing to inverses: q_tri is the left
    witness of q^-1 against the pair (h^-1, g^-1), so it depends only on q
    and h.  The left witness checks that q^-1 fixes x_1..x_m and that its
    three arguments fit in 1..m+n; an inverse has the support bound of its
    map, and the last argument enters only that check, so g is passed in
    place of g^-1 and a composite g's deferred inverse is not forced."""
    for a in (q, g, h):
        _require_automorphism(a, "witness_right")
    return witness_left(m, n, q.inverse(), h.inverse(), g)


def stability_witness(
    m: int, n: int, p: int, g: Automorphism, h: Automorphism
) -> tuple[Automorphism, Automorphism]:
    """Permutations (pi, s), both in H, realizing block-size stability:

        pi . (g.theta(m, n+p).h) . s . pi^-1  =  g.theta(m, n).h

    s swaps x_{m+n+t} <-> x_{m+2n+p+t} for t = 1..p; pi renames
    x_{m+n+t} -> x_{m+2n+t} (t <= p) and x_{m+n+p+k} -> x_{m+n+k} (k <= n).
    For p = 0 both are the identity.  Raises SizeLimitError for n + p over
    MAX_BLOCK_SIZE."""
    m, n, p = _integer(m, "m", 0), _integer(n, "n", 0), _integer(p, "p", 0)
    check_size(lambda: "stability witness", n + p, "generators per block", MAX_BLOCK_SIZE)
    _require_support("stability_witness", m, n, g, h)
    s = _block_swap(m + n, p, n + p)
    rename: dict[int, int] = {}
    for t in range(1, p + 1):
        rename[m + n + t] = m + 2 * n + t
    for k in range(1, n + 1):
        rename[m + n + p + k] = m + n + k
    pi = _permutation(rename)
    return pi, s


def star_product(m: int, g: Automorphism, h: Automorphism) -> ConjClassRep:
    """Product on H-conjugation classes of cosets: representative
    g . theta . h . theta with the canonical block size."""
    m = _integer(m, "m")
    n = block_size(m, g, h)
    th = _block_swap(m, n, n)
    rep = compose(g, compose(th, compose(h, th)))
    return ConjClassRep(m, rep, n)


def tuple_product(m: int, gs, hs) -> TupleRep:
    """Coordinatewise product of two k-tuples through one shared block swap.

    The shared block size covers every component of both tuples, so each
    coordinate is the coset product of its factors computed at a common N."""
    m = _integer(m, "m")
    gs = tuple(gs)
    hs = tuple(hs)
    if len(gs) != len(hs):
        raise ValueError("tuple factors must have the same length")
    if not gs:
        raise ValueError("tuples must have at least one component")
    n = block_size(m, *gs, *hs)
    th = _block_swap(m, n, n)
    reps = tuple(compose(g, compose(th, h)) for g, h in zip(gs, hs))
    return TupleRep(m, reps, n)


def star_vs_pair_check(m: int, g: Automorphism, h: Automorphism) -> bool:
    """Consistency of the class product with the pair embedding.

    Runs (g, id) x (h, id) through tuple_product, getting (A, B); B must lie
    in H, and A.B^-1 must equal the star_product representative exactly.
    False when B leaves H."""
    e = identity_automorphism()
    pair = tuple_product(m, (g, e), (h, e))
    a, b = pair.reps
    return is_in_H(b, m) and compose(a, b.inverse()) == star_product(m, g, h).rep

