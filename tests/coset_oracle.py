"""The disjoint-block triple product: the associativity cross-check of the
coset product, built on a hand-made relabeling rather than on the block
swaps of ``cosets``."""

from __future__ import annotations

from autcosets.automorphisms import Automorphism, compose
from autcosets.cosets import block_size


def oracle_shift_upper_block(a: Automorphism, m: int, n: int, offset: int) -> Automorphism:
    """Rename m+1..m+n to m+offset+1..m+offset+n in keys and letters alike;
    ``a`` must be supported on 1..m+n."""
    assert a.support_bound() <= m + n

    def relabel(i):
        return i + offset if i > m else i

    def relabel_images(e):
        return {relabel(k): tuple((relabel(g), s) for g, s in w) for k, w in e.images.items()}

    return Automorphism(relabel_images(a.fwd), relabel_images(a.inv))


def triple_product_disjoint(m: int, g: Automorphism, h: Automorphism, f: Automorphism) -> Automorphism:
    """Three-factor product with pairwise disjoint upper blocks.

    With n = block_size(m, g, h, f), g's upper block is renamed to
    m+2n+1..m+3n and h's to m+n+1..m+2n; f keeps m+1..m+n.  The composite
    g' . h' . f (f acts first) represents
    (HgH . HhH) . HfH = HgH . (HhH . HfH)."""
    n = block_size(m, g, h, f)
    g_sep = oracle_shift_upper_block(g, m, n, 2 * n)
    h_sep = oracle_shift_upper_block(h, m, n, n)
    return compose(g_sep, compose(h_sep, f))
