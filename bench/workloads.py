"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of items (``inputs``) and runs
one item at a time (``run``).  ``run`` returns ``(ok, payload)``: ``ok`` is
the conjunction of the exact identities the item checks, and ``payload`` is
the canonical output bytes whose digest is compared against the golden file
and against earlier passes over the same item.

Item ``i`` of a pool depends only on (seed, workload, i), so a smaller pool
is a prefix of the default one.  Each pool cycles through a fixed list of
strata (group, size class, verb), cheapest first, so every stretch of a run
has the same mix and the seed only changes the concrete inputs inside each
stratum.

Library calls always go through the module attributes in ``lib`` so that
the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

_COMPACT = {"separators": (",", ":")}


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _dumps(doc) -> bytes:
    return json.dumps(doc, **_COMPACT).encode()


def _letters(a) -> int:
    """Total letters over the forward and inverse image words."""
    return sum(len(w) for e in (a.fwd, a.inv) for w in e.images.values())


# ---------------------------------------------------------------- products
#
# Long factors, no finite group: words.substitute and the re-verification of
# every constructed pair inside automorphisms do nearly all the work, so
# ratmat/repengine changes should leave this workload unchanged.  Item cost
# grows steeply with the length of the product representative (correlation
# 0.78 against 0.3 for either factor alone), so a pair is redrawn until the
# representative's forward and inverse images hold a fixed band of letters;
# without the band a single pair can outweigh a whole pool.

PRODUCT_MOVES = (20, 45)
PRODUCT_REP_LETTERS = (150, 300)


def _product_pair(lib, rng: random.Random, m: int):
    A, C = lib.automorphisms, lib.cosets
    lo, hi = PRODUCT_REP_LETTERS
    while True:
        g, h = (
            A.random_automorphism(0, m + 4, rng.randint(*PRODUCT_MOVES), rng.randrange(1 << 30))
            for _ in range(2)
        )
        if lo <= _letters(C.coset_product(m, g, h).rep) < hi:
            return g, h


def products_inputs(lib, seed: int, pool: int) -> list:
    A = lib.automorphisms
    items = []
    for i in range(pool):
        rng = _rng(seed, "products", i)
        m = 1 + i % 2
        g, h = _product_pair(lib, rng, m)
        n = lib.cosets.block_size(m, g, h)
        r = A.random_automorphism(m, m + n, rng.randint(4, 8), rng.randrange(1 << 30))
        q = A.random_automorphism(m, m + n, rng.randint(4, 8), rng.randrange(1 << 30))
        items.append((m, g, h, r, q, 1 + (i // 2) % 2))
    return items


def products_run(lib, item):
    m, g, h, r, q, p = item
    A, C = lib.automorphisms, lib.cosets
    compose = A.compose
    prod = C.coset_product(m, g, h)
    n = prod.block
    rep = prod.rep
    ok = C.product_formula_direct(m, n, g, h) == rep
    ok &= C.star_vs_pair_check(m, g, h)
    th = C.theta(m, n)
    r_box = C.witness_left(m, n, r, g, h)
    ok &= compose(g, compose(th, compose(r, h))) == compose(r_box, rep)
    q_tri = C.witness_right(m, n, q, g, h)
    ok &= compose(g, compose(q, compose(th, h))) == compose(rep, q_tri.inverse())
    pi, s = C.stability_witness(m, n, p, g, h)
    padded = compose(g, compose(C.theta(m, n + p), h))
    ok &= compose(pi, compose(padded, compose(s, pi.inverse()))) == rep
    return ok, _dumps({"m": m, "N": n, "rep": A.automorphism_to_dict(rep)})


# ---------------------------------------------------------------- matrices
#
# The shape of acceptance criterion 5: exact Fraction matmul and orbit
# compression dominate.  Strata are weighted so that the median item falls
# inside the c3/m=2 stratum and p90 inside s3/m=2 (36x36 matrices), never on
# a boundary between two strata of very different cost.
#
# markov_matrix evaluates the x_1..x_m images at every point of K^N, so an
# item's cost is set by N and by the letters of those images in g, h and
# their product representative.  Both are pinned: each factor moves its top
# generator (so N is fixed per stratum) and a pair is redrawn until those
# letters lie in a band.  Unpinned, one s3/m=2 item ranges from 0.05 s to
# 0.5 s and the seed alone moves a pool's throughput by 15%.  Factors live on
# x_1..x_4 (m+3 for m=1, m+2 for m=2): on x_1..x_5, s3/m=2 would enumerate
# 6^8 points per representative and the point engine, not matmul, would set
# its cost.

FACTOR_MOVES = (6, 10)
IMAGE_LETTERS = {1: (3, 5), 2: (6, 8)}


def _factor_pair(lib, rng: random.Random, m: int, support: int):
    A, C = lib.automorphisms, lib.cosets
    lo, hi = IMAGE_LETTERS[m]
    while True:
        g, h = (
            A.random_automorphism(0, support, rng.randint(*FACTOR_MOVES), rng.randrange(1 << 30))
            for _ in range(2)
        )
        if g.support_bound() != support or h.support_bound() != support:
            continue
        rep = C.coset_product(m, g, h).rep
        letters = sum(len(a.image(i)) for a in (g, h, rep) for i in range(1, m + 1))
        if lo <= letters <= hi:
            return g, h


MATRIX_SUPPORT = 4
MATRIX_STRATA = (
    ("c2", 1), ("c3", 1), ("c2", 2), ("c3", 2),
    ("s3", 1), ("c3", 2), ("s3", 1), ("s3", 2),
)


def matrices_inputs(lib, seed: int, pool: int) -> list:
    G = lib.groups
    groups = {key: G.builtin_group(key) for key in ("c2", "c3", "s3")}
    whole = {key: G.Subgroup.whole(K) for key, K in groups.items()}
    items = []
    for i in range(pool):
        key, m = MATRIX_STRATA[i % len(MATRIX_STRATA)]
        g, h = _factor_pair(lib, _rng(seed, "matrices", i), m, MATRIX_SUPPORT)
        items.append((groups[key], whole[key], m, g, h))
    return items


def matrices_run(lib, item):
    K, whole, m, g, h = item
    R = lib.repengine
    prod = lib.cosets.coset_product(m, g, h)
    tg, th, tp = (R.markov_matrix(K, a, m) for a in (g, h, prod.rep))
    ok = tp == tg @ th
    ok &= all(t.is_doubly_stochastic() for t in (tg, th, tp))
    cg, ch, cp = (R.compress_to_invariants(K, whole, m, t) for t in (tg, th, tp))
    ok &= cp == cg @ ch
    return ok, _dumps([t.to_strings() for t in (tg, th, tp, cg, ch, cp)])


# ------------------------------------------------------------------ points
#
# m = 1, so matrices are at most 8x8 and ratmat work is negligible; the
# point engine dominates.  Truncations put n^N between 1.6e4 points (an
# int64 array well inside a 4 MiB L2) and 1.05e6 (8 MiB, outside it).
# Factor supports leave room for the product's doubled block: a factor on
# 1..s gives a representative on 1..2s-1.  Factors are pinned as for
# matrices, since the same image letters times n^N set the cost.  Two items
# in fourteen are weak_limit_check cases whose answer is known: true exactly
# when j >= c.  The middle strata (c2 at 17, c3 at 11) come twice, so that
# the median item falls inside them and p90 inside c3 at 12, not on a
# boundary between strata of very different cost.

POINT_STRATA = (
    ("c2", 14), ("c3", 9), ("q8", 5), ("d8", 5), "weak",
    ("c2", 17), ("c3", 11), ("q8", 6), ("d8", 6),
    ("c2", 20), ("c3", 12), "weak", ("c2", 17), ("c3", 11),
)
POINT_SUPPORT = {"c2": 7, "c3": 5, "q8": 3, "d8": 3}
# (group, m, c, j)
WEAK_CASES = (
    ("c2", 1, 2, 1), ("c3", 1, 1, 2), ("c2", 1, 2, 3), ("c3", 1, 1, 0),
    ("c2", 1, 2, 2), ("c3", 1, 1, 1), ("c2", 1, 1, 0), ("c2", 1, 1, 1),
)


def points_inputs(lib, seed: int, pool: int) -> list:
    groups = {key: lib.groups.builtin_group(key) for key in POINT_SUPPORT}
    items = []
    weak = 0
    for i in range(pool):
        stratum = POINT_STRATA[i % len(POINT_STRATA)]
        if stratum == "weak":
            key, m, c, j = WEAK_CASES[weak % len(WEAK_CASES)]
            weak += 1
            items.append(("weak", groups[key], m, c, j))
            continue
        key, truncation = stratum
        g, h = _factor_pair(lib, _rng(seed, "points", i), 1, POINT_SUPPORT[key])
        items.append(("product", groups[key], truncation, g, h))
    return items


def points_run(lib, item):
    R = lib.repengine
    if item[0] == "weak":
        _, K, m, c, j = item
        holds = R.weak_limit_check(K, m, c, j)
        return holds == (j >= c), _dumps([K.name, m, c, j, holds])
    _, K, truncation, g, h = item
    rep = lib.cosets.coset_product(1, g, h).rep
    tp, tg, th = (R.markov_matrix(K, a, 1, truncation=truncation) for a in (rep, g, h))
    ok = tp == tg @ th
    ok &= R.markov_matrix(K, rep, 1) == tp
    amap = R.action_map(K, rep, rep.support_bound())
    table = np.asarray(amap.table, dtype="<i8")
    ok &= bool(np.array_equal(np.sort(table), np.arange(len(table))))
    return ok, _dumps([t.to_strings() for t in (tp, tg, th)]) + table.tobytes()


# --------------------------------------------------------------------- cli
#
# In-process ``cli.main(argv)`` calls with inline JSON automorphisms of about
# 500 bytes: the JSON boundary, the inverse-pair verification at load and
# the exit-code contract.  Four requests in twenty are invalid and must exit
# 1 with a one-line error; one in twenty runs a verify suite.

CLI_VERBS = (
    "compose", "invert", "coset-product", "star-product", "tuple-product",
    "rep-matrix", "compose", "bad-inverse", "coset-product", "star-product",
    "rep-matrix", "invert", "bad-word", "compose", "tuple-product",
    "coset-product", "bad-points", "star-product", "bad-json", "verify",
)
CLI_JSON_BYTES = (400, 600)
CLI_GROUPS = (("c3", "0,1,2"), ("s3", "0,1,2,3,4,5"))
VERIFY_SUITES = ("words", "automorphisms", "cosets", "representation")


class CliRequest:
    """One CLI call and how to check it.

    ``expect`` computes the library's own result serialized the way the CLI
    prints it, or is None for requests that must fail (exit 1) and for
    verify runs (exit 0, every line ``ok``)."""

    __slots__ = ("argv", "expect", "exit_code")

    def __init__(self, argv, expect=None, exit_code=0):
        self.argv = argv
        self.expect = expect
        self.exit_code = exit_code


def _cli_factor(lib, rng: random.Random):
    lo, hi = CLI_JSON_BYTES
    A = lib.automorphisms
    while True:
        a = A.random_automorphism(0, 5, rng.randint(26, 34), rng.randrange(1 << 30))
        doc = A.automorphism_to_dict(a)
        text = json.dumps(doc, **_COMPACT)
        if lo <= len(text) < hi:
            return a, doc, text


def _cli_request(lib, verb: str, index: int, rng: random.Random) -> CliRequest:
    A, C = lib.automorphisms, lib.cosets
    if verb == "verify":
        suite = VERIFY_SUITES[(index // len(CLI_VERBS)) % len(VERIFY_SUITES)]
        return CliRequest(["verify", "--suite", suite, "--seed", str(rng.randrange(1000))])
    g, g_doc, g_json = _cli_factor(lib, rng)
    h, h_doc, h_json = _cli_factor(lib, rng)
    m = rng.randint(1, 2)

    def product_doc(prod):
        return {"m": prod.m, "N": prod.block, "rep": A.automorphism_to_dict(prod.rep)}

    if verb == "compose":
        return CliRequest(
            ["compose", "--g", g_json, "--h", h_json],
            lambda: A.automorphism_to_dict(A.compose(g, h)),
        )
    if verb == "invert":
        return CliRequest(["invert", "--g", g_json], lambda: A.automorphism_to_dict(A.invert(g)))
    if verb in ("coset-product", "star-product"):
        fn = C.coset_product if verb == "coset-product" else C.star_product
        return CliRequest(
            [verb, "--m", str(m), "--g", g_json, "--h", h_json],
            lambda: product_doc(fn(m, g, h)),
        )
    if verb == "tuple-product":
        gs = f"[{g_json},{h_json}]"
        hs = f"[{h_json},{g_json}]"

        def expect():
            prod = C.tuple_product(m, (g, h), (h, g))
            return {
                "m": prod.m,
                "N": prod.block,
                "reps": [A.automorphism_to_dict(rep) for rep in prod.reps],
            }

        return CliRequest(["tuple-product", "--m", str(m), "--gs", gs, "--hs", hs], expect)
    if verb == "rep-matrix":
        key, members = CLI_GROUPS[(index // len(CLI_VERBS)) % len(CLI_GROUPS)]

        def expect():
            R, G = lib.repengine, lib.groups
            K = G.builtin_group(key)
            sub = G.Subgroup(K, [int(x) for x in members.split(",")])
            return R.compress_to_invariants(K, sub, 1, R.markov_matrix(K, g, 1)).to_strings()

        return CliRequest(
            ["rep-matrix", "--group", key, "--m", "1", "--g", g_json, "--u", members], expect
        )
    if verb == "bad-inverse":
        # g's forward images with h's inverse images: not an inverse pair
        bad = json.dumps({"images": g_doc["images"], "inverse_images": h_doc["inverse_images"]})
        return CliRequest(["compose", "--g", bad, "--h", h_json], exit_code=1)
    if verb == "bad-word":
        images = dict(g_doc["images"])
        first = min(images, key=int)
        images[first] = [[0, 1]] + images[first]
        bad = json.dumps({"images": images, "inverse_images": g_doc["inverse_images"]})
        return CliRequest(["invert", "--g", bad], exit_code=1)
    if verb == "bad-json":
        return CliRequest(["coset-product", "--m", str(m), "--g", g_json[:-1], "--h", h_json], exit_code=1)
    if verb == "bad-points":
        return CliRequest(
            ["rep-matrix", "--group", "c3", "--m", "1", "--g", g_json, "--max-points", "2"],
            exit_code=1,
        )
    raise ValueError(f"unknown CLI request kind {verb!r}")


def cli_inputs(lib, seed: int, pool: int) -> list:
    return [
        _cli_request(lib, CLI_VERBS[i % len(CLI_VERBS)], i, _rng(seed, "cli", i))
        for i in range(pool)
    ]


def cli_call(lib, argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_run(lib, req: CliRequest):
    code, out, err = cli_call(lib, req.argv)
    ok = code == req.exit_code and "Traceback" not in err
    if req.exit_code:
        ok &= out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        ok &= err == ""
    return ok, f"{code}\n{out}".encode()


def cli_check(lib, req: CliRequest, payload: bytes) -> bool:
    """Compare a successful call's stdout with the library's own result.

    Run once per pool item, outside the timed region."""
    if req.exit_code:
        return True
    out = payload.decode().partition("\n")[2]
    if req.expect is None:
        lines = out.splitlines()
        return bool(lines) and lines[-1].startswith("passed ") and all(
            line.startswith("ok ") for line in lines[:-1]
        )
    return out == json.dumps(req.expect(), **_COMPACT) + "\n"


def cli_traffic(req: CliRequest, payload: bytes) -> tuple[int, int]:
    """Bytes of argv in and of stdout out."""
    return sum(len(arg.encode()) for arg in req.argv), len(payload.partition(b"\n")[2])


class Workload:
    """``inputs(lib, seed, pool)`` builds the pool, ``run(lib, item)`` runs
    one item; ``check`` and ``traffic`` are optional per-item hooks."""

    __slots__ = ("name", "pool", "inputs", "run", "check", "traffic")

    def __init__(self, name, pool, inputs, run, check=None, traffic=None):
        self.name = name
        self.pool = pool
        self.inputs = inputs
        self.run = run
        self.check = check
        self.traffic = traffic


WORKLOADS = {
    w.name: w
    for w in (
        Workload("products", 100, products_inputs, products_run),
        Workload("matrices", 104, matrices_inputs, matrices_run),
        Workload("points", 112, points_inputs, points_run),
        Workload("cli", 160, cli_inputs, cli_run, cli_check, cli_traffic),
    )
}
