"""The paper's structural laws as predicates, and the seeded self-check
suites behind the CLI ``verify`` verb.

Each law is one predicate over concrete inputs that is True when its
identity holds exactly: the two product paths agree, the stabilizer
witnesses absorb H-factors (and are invertible members of the stabilizer),
the coset does not depend on the block size, and the product maps to the
matrix product, also after compression onto conjugation-orbit averages.
The acceptance tests call the same predicates with their heavier case
counts.  A suite draws its cases from one ``random.Random(seed)`` and
returns one CheckResult per law checked; laws that read the same draw are
checked on one list of cases.
"""

from __future__ import annotations

__all__ = ["CheckResult", "run_suites"]

import random
from dataclasses import dataclass

from .automorphisms import (
    compose,
    is_in_H,
    nielsen_invert,
    nielsen_right_mult,
    nielsen_swap,
    permutation_automorphism,
    random_automorphism,
)
from .cosets import (
    block_size,
    coset_product,
    product_formula_direct,
    stability_witness,
    star_vs_pair_check,
    theta,
    witness_left,
    witness_right,
)
from .groups import Subgroup, builtin_group
from .ratmat import RationalMatrix
from .repengine import action_map, compress_to_invariants, markov_matrix, weak_limit_check
from .words import _clip, concat, format_word, invert_word, parse_word, reduce


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# --- the laws ---------------------------------------------------------------

def _inverts(a) -> bool:
    """Whether a composed with its stored inverse is the identity."""
    return compose(a, a.inverse()).is_identity()


def direct_formula_agrees(m: int, g, h) -> bool:
    """coset_product(m, g, h) equals the direct substitution formula at its
    block size."""
    prod = coset_product(m, g, h)
    return product_formula_direct(m, prod.block, g, h) == prod.rep


def left_witness_absorbs(m: int, n: int, r, g, h) -> bool:
    """g.theta(m,n).r.h = r_box.(g.theta(m,n).h), where r_box =
    witness_left(m, n, r, g, h) is invertible and fixes x_1..x_(m+n)."""
    th = theta(m, n)
    r_box = witness_left(m, n, r, g, h)
    core = compose(g, compose(th, h))
    return (
        compose(g, compose(th, compose(r, h))) == compose(r_box, core)
        and is_in_H(r_box, m + n)
        and _inverts(r_box)
    )


def right_witness_absorbs(m: int, n: int, q, g, h) -> bool:
    """g.q.theta(m,n).h = (g.theta(m,n).h).q_tri^-1, where q_tri =
    witness_right(m, n, q, g, h) is invertible and fixes x_1..x_m."""
    th = theta(m, n)
    q_tri = witness_right(m, n, q, g, h)
    core = compose(g, compose(th, h))
    return (
        compose(g, compose(q, compose(th, h))) == compose(core, q_tri.inverse())
        and is_in_H(q_tri, m)
        and _inverts(q_tri)
    )


def block_size_stable(m: int, p: int, g, h) -> bool:
    """Padding the block by p gives a conjugate of the same product:
    pi.(g.theta(m,n+p).h).s.pi^-1 = g.theta(m,n).h at n = block_size(m, g, h),
    with (pi, s) = stability_witness(m, n, p, g, h)."""
    n = block_size(m, g, h)
    pi, s = stability_witness(m, n, p, g, h)
    padded = compose(g, compose(theta(m, n + p), h))
    return compose(pi, compose(padded, compose(s, pi.inverse()))) == compose(
        g, compose(theta(m, n), h)
    )


def product_matrices(K, m: int, g, h) -> list[RationalMatrix]:
    """Markov matrices over K^m of coset_product(m, g, h) and of g and h,
    in that order."""
    prod = coset_product(m, g, h)
    return [markov_matrix(K, a, m) for a in (prod.rep, g, h)]


def matrix_product_agrees(product: RationalMatrix, g: RationalMatrix, h: RationalMatrix) -> bool:
    """The product's matrix is the matrix product of its factors' matrices."""
    return product == g @ h


def compressed_product_agrees(K, u, m: int, product, g, h) -> bool:
    """matrix_product_agrees after compressing the three K^m matrices onto
    the orbit averages of conjugation by the subgroup u."""
    return matrix_product_agrees(*(compress_to_invariants(K, u, m, t) for t in (product, g, h)))


# --- the suites -------------------------------------------------------------

def _check(name: str, law, cases: list, what: str) -> CheckResult:
    """Whether ``law`` holds on every case (a tuple of its arguments)."""
    return CheckResult(name, all(law(*case) for case in cases), f"{len(cases)} {what}")


def _rand(rng: random.Random, m_fix: int, max_index: int, max_len: int):
    return random_automorphism(m_fix, max_index, rng.randint(0, max_len), rng.randrange(1 << 30))


def _pair(rng: random.Random, max_len: int):
    m = rng.choice((1, 2))
    return m, _rand(rng, 0, m + 2, max_len), _rand(rng, 0, m + 2, max_len)


def _bijective(K, g, n_coords: int) -> bool:
    """Whether the point map of g on K^n_coords hits every point; a
    refusal of ``action_map`` propagates."""
    return set(action_map(K, g, n_coords).table.tolist()) == set(range(K.order ** n_coords))


# the letters of x1..x6 and their inverses, drawn uniformly by the words suite
_LETTERS = tuple((gen, sign) for gen in range(1, 7) for sign in (1, -1))


def _suite_words(rng: random.Random) -> list[CheckResult]:
    words = [(reduce(rng.choices(_LETTERS, k=rng.randint(0, 30))),) for _ in range(500)]
    return [
        _check("words.reduce_idempotent", lambda w: reduce(w) == w, words, "random words"),
        _check("words.inverse_cancels", lambda w: concat(w, invert_word(w)) == (), words,
               "random words"),
        _check("words.text_roundtrip", lambda w: parse_word(format_word(w)) == w, words,
               "random words"),
    ]


def _suite_automorphisms(rng: random.Random) -> list[CheckResult]:
    triples = [tuple(_rand(rng, 0, 4, 8) for _ in range(3)) for _ in range(40)]
    perms = []
    for _ in range(40):
        idx = rng.sample(range(1, 8), 4)
        shuffled = idx[:]
        rng.shuffle(shuffled)
        perms.append((permutation_automorphism(dict(zip(idx, shuffled))),))
    moves = [(nielsen_swap(1, 3),), (nielsen_invert(2),), (nielsen_right_mult(2, 5),)]
    base_fixed = all(is_in_H(theta(m, j), m) for m in range(3) for j in range(4))
    return [
        _check("automorphisms.associative",
               lambda a, b, c: compose(compose(a, b), c) == compose(a, compose(b, c)),
               triples, "random triples"),
        _check("automorphisms.inverse_verified", lambda a, *_: _inverts(a), triples,
               "random elements"),
        _check("automorphisms.nielsen_generators", _inverts, moves, "generators"),
        _check("automorphisms.permutations", _inverts, perms, "random permutations"),
        CheckResult("automorphisms.block_swap_fixes_base", base_fixed, "m<3, j<4"),
    ]


def _suite_cosets(rng: random.Random) -> list[CheckResult]:
    direct = [_pair(rng, 8) for _ in range(25)]
    quadruples = []
    for _ in range(15):
        m, n = rng.choice((1, 2)), rng.randint(1, 3)
        g, h = _rand(rng, 0, m + n, 6), _rand(rng, 0, m + n, 6)
        quadruples.append((m, n, _rand(rng, m, m + n, 6), g, h))
    padded = []
    for _ in range(10):
        m, g, h = _pair(rng, 6)
        padded.append((m, rng.choice((1, 2)), g, h))
    star = [_pair(rng, 8) for _ in range(25)]
    return [
        _check("cosets.direct_formula_agrees", direct_formula_agrees, direct, "random pairs"),
        _check("cosets.witnesses_absorb",
               lambda *c: left_witness_absorbs(*c) and right_witness_absorbs(*c),
               quadruples, "random quadruples"),
        _check("cosets.block_size_stable", block_size_stable, padded, "random pairs"),
        _check("cosets.star_matches_pairs", star_vs_pair_check, star, "random pairs"),
    ]


def _suite_representation(rng: random.Random) -> list[CheckResult]:
    c2, s3 = builtin_group("c2"), builtin_group("s3")
    products = [
        product_matrices(K, 1, _rand(rng, 0, 3, 6), _rand(rng, 0, 3, 6))
        for K, count in ((c2, 6), (builtin_group("c3"), 4), (s3, 3))
        for _ in range(count)
    ]
    over_s3 = [product_matrices(s3, 1, _rand(rng, 0, 3, 6), _rand(rng, 0, 3, 6)) for _ in range(3)]
    maps = [(c2, _rand(rng, 0, 4, 8), 4) for _ in range(10)]
    whole = Subgroup.whole(s3)
    trivial = markov_matrix(c2, theta(1, 2), 1) == RationalMatrix.identity(2)
    weak = not weak_limit_check(c2, 1, 1, 0) and all(weak_limit_check(c2, 1, 1, j) for j in (1, 2))
    return [
        _check("representation.product_to_matrix_product", matrix_product_agrees, products,
               "pairs, 3 groups"),
        _check("representation.doubly_stochastic", lambda p, *_: p.is_doubly_stochastic(),
               products, "matrices"),
        _check("representation.compressed_product",
               lambda *mats: compressed_product_agrees(s3, whole, 1, *mats),
               over_s3, "pairs over s3"),
        CheckResult("representation.stabilizer_acts_trivially", trivial, "block swap over c2"),
        CheckResult("representation.weak_limit_threshold", weak, "c2, margin 1, j<3"),
        _check("representation.point_maps_bijective", _bijective, maps, "random maps on c2^4"),
    ]


SUITES = {
    "words": _suite_words,
    "automorphisms": _suite_automorphisms,
    "cosets": _suite_cosets,
    "representation": _suite_representation,
}


def run_suites(name: str = "all", seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or all of them, each from a fresh
    ``random.Random(seed)``) and return the check results."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {_clip(name)}; choose from {', '.join(SUITES)} or all")
    names = SUITES if name == "all" else (name,)
    return [res for suite in names for res in SUITES[suite](random.Random(seed))]
