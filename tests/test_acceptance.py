"""Acceptance gate: eleven end-to-end checks with fixed seeds, exact
arithmetic, and explicit time budgets.  Each test appends one [PRIMARY]
pass/fail line to the shared report printed at the end of the run."""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

import conftest
from autcosets.automorphisms import compose, random_automorphism
from autcosets.cosets import block_size, coset_product, star_vs_pair_check
from autcosets.groups import Subgroup, builtin_group
from autcosets.repengine import action_map, markov_matrix, weak_limit_check
from autcosets.verify import (
    block_size_stable,
    compressed_product_agrees,
    direct_formula_agrees,
    left_witness_absorbs,
    matrix_product_agrees,
    product_matrices,
    right_witness_absorbs,
)
from autcosets.words import EMPTY, concat, invert_word, reduce
from coset_oracle import triple_product_disjoint

C2 = builtin_group("c2")
C3 = builtin_group("c3")
S3 = builtin_group("s3")


def _report(label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[PRIMARY] {label}: {status}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_RESULTS.append(line)
    if failures:
        raise AssertionError(f"{line}; first failure: {failures[0]}")


def _rand(rng: random.Random, m_fix: int, max_index: int, max_len: int):
    return random_automorphism(
        m_fix, max_index, rng.randint(0, max_len), rng.randrange(2**30)
    )


def test_01_word_engine_random_axioms():
    rng = random.Random(10_001)
    sequences = [
        tuple((rng.randint(1, 9), rng.choice((1, -1))) for _ in range(rng.randint(0, 64)))
        for _ in range(10_000)
    ]
    failures: list = []
    start = time.perf_counter()
    reduced = []
    for seq in sequences:
        w = reduce(seq)
        if reduce(w) != w:
            failures.append(f"reduce not idempotent on {seq!r}")
        v = invert_word(w)
        if concat(w, v) != EMPTY or concat(v, w) != EMPTY:
            failures.append(f"inverse law fails on {seq!r}")
        if concat(w, EMPTY) != w or concat(EMPTY, w) != w:
            failures.append(f"identity law fails on {seq!r}")
        if invert_word(v) != w:
            failures.append(f"double inversion fails on {seq!r}")
        reduced.append(w)
    for i in range(0, len(reduced) - 2, 4):
        a, b, c = reduced[i], reduced[i + 1], reduced[i + 2]
        if concat(concat(a, b), c) != concat(a, concat(b, c)):
            failures.append(f"associativity fails at triple {i}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"time budget exceeded: {elapsed:.3f}s")
    _report(
        "criterion 1 — word engine axioms on 10000 random sequences",
        failures,
        f"{elapsed:.3f}s",
    )


def test_02_product_paths_agree():
    rng = random.Random(20_002)
    failures: list = []
    for count in range(200):
        m = 1 if count < 100 else 2
        g = _rand(rng, 0, m + 3, 12)
        h = _rand(rng, 0, m + 3, 12)
        if not direct_formula_agrees(m, g, h):
            failures.append(f"pair {count} (m={m}) disagrees")
    _report(
        "criterion 2 — stabilized product equals direct pattern formula (200 pairs)",
        failures,
    )


def test_03_witness_identities():
    rng = random.Random(30_003)
    failures: list = []
    for count in range(100):
        m = 1 + count % 2
        g = _rand(rng, 0, m + 2, 8)
        h = _rand(rng, 0, m + 2, 8)
        r = _rand(rng, m, m + 3, 8)
        q = _rand(rng, m, m + 3, 8)
        n = block_size(m, g, h, r, q)
        if not left_witness_absorbs(m, n, r, g, h):
            failures.append(f"left witness fails at tuple {count}")
        if not right_witness_absorbs(m, n, q, g, h):
            failures.append(f"right witness fails at tuple {count}")
    _report(
        "criterion 3 — left/right stabilizer witnesses, exact identities (100 tuples)",
        failures,
    )


def test_04_block_padding_stability():
    rng = random.Random(40_004)
    failures: list = []
    for count in range(100):
        m = 1 + count % 2
        g = _rand(rng, 0, m + 2, 10)
        h = _rand(rng, 0, m + 2, 10)
        for p in (1, 2):
            if not block_size_stable(m, p, g, h):
                failures.append(f"pair {count} p={p} conjugation mismatch")
    _report(
        "criterion 4 — block-size stability under padding (100 pairs, p in {1,2})",
        failures,
    )


def test_05_matrix_homomorphism_exact():
    rng = random.Random(50_005)
    failures: list = []
    start = time.perf_counter()
    for K in (C2, C3, S3):
        whole = Subgroup.whole(K)
        for m in (1, 2):
            for count in range(50):
                g = _rand(rng, 0, m + 3, 10)
                h = _rand(rng, 0, m + 3, 10)
                mats = product_matrices(K, m, g, h)
                if not matrix_product_agrees(*mats):
                    failures.append(f"{K.name} m={m} pair {count}: matrix product differs")
                for mat in mats:
                    if not mat.is_doubly_stochastic():
                        failures.append(f"{K.name} m={m} pair {count}: not doubly stochastic")
                if not compressed_product_agrees(K, whole, m, *mats):
                    failures.append(f"{K.name} m={m} pair {count}: compressed product differs")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"time budget exceeded: {elapsed:.1f}s")
    _report(
        "criterion 5 — exact matrix homomorphism over c2/c3/s3, m in {1,2}, 50 pairs each, "
        "with whole-group compression",
        failures,
        f"{elapsed:.1f}s",
    )


def test_06_associativity_through_matrices():
    rng = random.Random(60_006)
    failures: list = []
    for count in range(30):
        m = 1 + count % 2
        g = _rand(rng, 0, m + 2, 8)
        h = _rand(rng, 0, m + 2, 8)
        f = _rand(rng, 0, m + 2, 8)
        left = coset_product(m, coset_product(m, g, h).rep, f).rep
        right = coset_product(m, g, coset_product(m, h, f).rep).rep
        trip = triple_product_disjoint(m, g, h, f)
        a, b, c = (markov_matrix(C2, x, m) for x in (left, right, trip))
        if not (a == b == c):
            failures.append(f"triple {count} (m={m}): bracketings disagree")
        if not a.is_doubly_stochastic():
            failures.append(f"triple {count}: not doubly stochastic")
    _report(
        "criterion 6 — associativity: both bracketings and the disjoint-block "
        "triple give one matrix (30 triples)",
        failures,
    )


def test_07_weak_limit_threshold():
    failures: list = []
    for margin in (1, 2):
        for j in range(margin, margin + 3):
            if not weak_limit_check(C2, 1, margin, j):
                failures.append(f"margin {margin}: check false at j={j}")
        if not any(not weak_limit_check(C2, 1, margin, j) for j in range(margin)):
            failures.append(f"margin {margin}: no failing j below the margin")
    _report(
        "criterion 7 — swap-to-projection limit: matches at j >= margin, "
        "separates below",
        failures,
    )


def test_08_bijections_and_double_stochasticity():
    rng = random.Random(80_008)
    failures: list = []
    for count in range(100):
        g = _rand(rng, 0, 5, 10)
        n = g.support_bound()
        for K in (C2, S3):
            table = action_map(K, g, n).table
            if len(np.unique(table)) != K.order**n:
                failures.append(f"g {count}: not a bijection over {K.name}^{n}")
        for K in (C2, S3):
            if not markov_matrix(K, g, 1).is_doubly_stochastic():
                failures.append(f"g {count}: matrix over {K.name} not doubly stochastic")
    _report(
        "criterion 8 — point action is a bijection; matrices doubly stochastic "
        "(100 maps, c2 and s3)",
        failures,
    )


def test_09_invertible_block_degenerates_to_composition():
    rng = random.Random(90_009)
    failures: list = []
    for count in range(50):
        m = (1, 2, 3)[count % 3]
        g = _rand(rng, 0, m, 10)
        h = _rand(rng, 0, m, 10)
        prod = coset_product(m, g, h)
        if prod.block != 0:
            failures.append(f"pair {count} (m={m}): nonzero added block")
        if prod.rep != compose(g, h):
            failures.append(f"pair {count} (m={m}): product differs from composition")
    _report(
        "criterion 9 — fully supported pairs degenerate to plain composition (50 pairs)",
        failures,
    )


def test_10_class_product_pair_consistency():
    rng = random.Random(100_010)
    failures: list = []
    for count in range(100):
        m = 1 + count % 2
        g = _rand(rng, 0, m + 2, 8)
        h = _rand(rng, 0, m + 2, 8)
        if not star_vs_pair_check(m, g, h):
            failures.append(f"pair {count} (m={m}) fails")
    _report(
        "criterion 10 — class product consistent with pair product (100 pairs)",
        failures,
    )


def test_11_cli_golden_bytes(tmp_path):
    g = tmp_path / "g.json"
    h = tmp_path / "h.json"
    g.write_text('{"images": {"1": [[1,1],[2,1]]}, "inverse_images": {"1": [[1,1],[2,-1]]}}')
    h.write_text('{"images": {"2": [[2,1],[1,1]]}, "inverse_images": {"2": [[2,1],[1,-1]]}}')
    golden = [
        (
            ("reduce", "x1 x1^-1"),
            b'""\n',
        ),
        (
            ("coset-product", "--m", "1", "--g", str(g), "--h", str(h)),
            b'{"m":1,"N":1,"rep":{"images":{"1":[[1,1],[2,1]],"2":[[3,1],[1,1],[2,1]],'
            b'"3":[[2,1]]},"inverse_images":{"1":[[1,1],[3,-1]],"2":[[3,1]],'
            b'"3":[[2,1],[1,-1]]}}}\n',
        ),
        (
            ("rep-matrix", "--group", "c2", "--m", "1", "--g", str(g)),
            b'[["1/2","1/2"],["1/2","1/2"]]\n',
        ),
    ]
    failures: list = []
    for argv, expected in golden:
        proc = subprocess.run(
            [sys.executable, "-m", "autcosets", *argv], capture_output=True
        )
        if proc.returncode != 0:
            failures.append(f"{argv[0]}: exit {proc.returncode}")
        elif proc.stdout != expected:
            failures.append(f"{argv[0]}: output {proc.stdout!r} != {expected!r}")
    _report("criterion 11 — CLI golden outputs byte-identical (3 commands)", failures)
