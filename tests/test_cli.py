"""Command-line interface.  The three documented invocations, and two
compressed ``rep-matrix --u`` outputs by their SHA-256, are pinned as
byte-for-byte golden outputs via subprocess; the remaining coverage drives
``main`` in-process for speed."""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcosets import automorphisms, cli, verify
from autcosets.automorphisms import (
    automorphism_to_dict,
    compose,
    identity_automorphism,
    invert,
    nielsen_swap,
    random_automorphism,
)
from autcosets.cli import main
from autcosets.cosets import coset_product, star_product, theta, tuple_product
from autcosets.verify import CheckResult, run_suites

G_JSON = '{"images": {"1": [[1,1],[2,1]]}, "inverse_images": {"1": [[1,1],[2,-1]]}}'
H_JSON = '{"images": {"2": [[2,1],[1,1]]}, "inverse_images": {"2": [[2,1],[1,-1]]}}'
# a swap of x1 and x_(10^9): loads at once, but its block size is 10^9 - m
FAR_JSON = json.dumps(automorphism_to_dict(nielsen_swap(1, 10**9)))

IDENTITY_JSON = '{"images":{},"inverse_images":{}}'

GOLDEN_COSET = (
    b'{"m":1,"N":1,"rep":{"images":{"1":[[1,1],[2,1]],"2":[[3,1],[1,1],[2,1]],'
    b'"3":[[2,1]]},"inverse_images":{"1":[[1,1],[3,-1]],"2":[[3,1]],'
    b'"3":[[2,1],[1,-1]]}}}\n'
)
GOLDEN_MATRIX = b'[["1/2","1/2"],["1/2","1/2"]]\n'


@pytest.fixture()
def pair_files(tmp_path):
    g = tmp_path / "g.json"
    h = tmp_path / "h.json"
    g.write_text(G_JSON)
    h.write_text(H_JSON)
    return g, h


def run_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "autcosets", *argv],
        capture_output=True,
        input=stdin,
    )


# --- documented golden invocations (byte-identical) ----------------------

def test_golden_reduce():
    proc = run_cli("reduce", "x1 x1^-1")
    assert proc.returncode == 0
    assert proc.stdout == b'""\n'


def test_golden_coset_product(pair_files):
    g, h = pair_files
    proc = run_cli("coset-product", "--m", "1", "--g", str(g), "--h", str(h))
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_COSET


def test_golden_rep_matrix(pair_files):
    g, _ = pair_files
    proc = run_cli("rep-matrix", "--group", "c2", "--m", "1", "--g", str(g))
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_MATRIX


def test_golden_outputs_are_stable_across_reruns(pair_files):
    g, h = pair_files
    args = ("coset-product", "--m", "1", "--g", str(g), "--h", str(h))
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_stdin_input(pair_files):
    g, _ = pair_files
    proc = run_cli(
        "rep-matrix", "--group", "c2", "--m", "1", "--g", "-",
        stdin=g.read_bytes(),
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_MATRIX


# an automorphism moving x1..x3 with support 4, so m = 3 averages over x4
S3_M3_JSON = (
    '{"images":{"1":[[1,1],[2,1]],"2":[[2,-1],[3,1],[4,1]],"3":[[3,1],[4,1]]},'
    '"inverse_images":{"1":[[1,1],[2,1],[3,-1]],"2":[[3,1],[2,-1]],"3":[[3,1],[4,-1]]}}'
)


@pytest.mark.parametrize(
    "members, sha256",
    [
        ("0,1,2,3,4,5", "4a5f6543548a73c8e0872ed9a9d4ed4a98a9098cee365960e105656e7f02fd66"),
        ("0,3,4", "56014e27cee0e914be88ceda9af5ed3a2308ad4f1a3ddb97c29d7508c268615d"),
    ],
)
def test_golden_compressed_rep_matrix(members, sha256):
    """216x216 matrices over s3 compressed onto the conjugation orbits of
    the whole group and of its rotations."""
    proc = run_cli("rep-matrix", "--group", "s3", "--m", "3", "--g", S3_M3_JSON, "--u", members)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256


# --- in-process coverage --------------------------------------------------

def test_reduce_text_mode(capsys):
    assert main(["reduce", "x2 x1 x1^-1 x3", "--text"]) == 0
    assert capsys.readouterr().out == "x2 x3\n"


def test_compose_inline_json(capsys):
    assert main(["compose", "--g", G_JSON, "--h", H_JSON]) == 0
    doc = json.loads(capsys.readouterr().out)
    # h acts first: x2 -> x2 x1 -> (x2)(x1 x2)
    assert doc["images"] == {"1": [[1, 1], [2, 1]], "2": [[2, 1], [1, 1], [2, 1]]}


def test_invert_roundtrip(capsys):
    assert main(["invert", "--g", G_JSON]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["images"] == {"1": [[1, 1], [2, -1]]}
    assert doc["inverse_images"] == {"1": [[1, 1], [2, 1]]}


def test_invert_identity_text(capsys):
    assert main(["invert", "--g", '{"images": {}, "inverse_images": {}}', "--text"]) == 0
    assert capsys.readouterr().out == "identity\n"


def test_coset_product_text(capsys):
    assert main(["coset-product", "--m", "1", "--g", G_JSON, "--h", H_JSON, "--text"]) == 0
    assert capsys.readouterr().out == (
        "m=1 N=1\nx1 -> x1 x2\nx2 -> x3 x1 x2\nx3 -> x2\n"
    )


def test_star_product_text(capsys):
    assert main(["star-product", "--m", "1", "--g", G_JSON, "--h", H_JSON, "--text"]) == 0
    assert capsys.readouterr().out == "m=1 N=1\nx1 -> x1 x2\nx3 -> x3 x1 x2\n"


def test_star_product_verb(capsys):
    assert main(["star-product", "--m", "1", "--g", G_JSON, "--h", H_JSON]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 1 and doc["N"] == 1
    assert set(doc["rep"]) == {"images", "inverse_images"}


def test_tuple_product_single_matches_coset(capsys):
    assert main(["tuple-product", "--m", "1", "--gs", f"[{G_JSON}]", "--hs", f"[{H_JSON}]"]) == 0
    tup = json.loads(capsys.readouterr().out)
    assert main(["coset-product", "--m", "1", "--g", G_JSON, "--h", H_JSON]) == 0
    single = json.loads(capsys.readouterr().out)
    assert tup["N"] == single["N"]
    assert tup["reps"] == [single["rep"]]


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("seed", range(4))
def test_json_output_is_json_dumps_of_the_librarys_document(capsys, seed):
    # the CLI writes its JSON from code words; the library's dict is the oracle
    g = random_automorphism(0, 5, 30, seed)
    h = random_automorphism(0, 5, 30, seed + 100)
    g_json, h_json = _compact(automorphism_to_dict(g)), _compact(automorphism_to_dict(h))
    m = 1 + seed % 2

    def pair(prod):
        return {"m": prod.m, "N": prod.block, "rep": automorphism_to_dict(prod.rep)}

    tup = tuple_product(m, (g, h), (h, g))
    cases = [
        (["compose", "--g", g_json, "--h", h_json], automorphism_to_dict(compose(g, h))),
        (["invert", "--g", g_json], automorphism_to_dict(invert(g))),
        (["coset-product", "--m", str(m), "--g", g_json, "--h", h_json],
         pair(coset_product(m, g, h))),
        (["star-product", "--m", str(m), "--g", g_json, "--h", h_json],
         pair(star_product(m, g, h))),
        (["tuple-product", "--m", str(m), "--gs", f"[{g_json},{h_json}]",
          "--hs", f"[{h_json},{g_json}]"],
         {"m": tup.m, "N": tup.block, "reps": [automorphism_to_dict(r) for r in tup.reps]}),
    ]
    for argv, doc in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == _compact(doc) + "\n"


def test_compose_text_leaves_the_inverse_deferred(capsys, monkeypatch):
    # a composite's inverse is built when first read: --text never reads it
    def forced(root):
        raise AssertionError("the deferred inverse was forced")

    monkeypatch.setattr(automorphisms, "_force_inverse", forced)
    assert main(["compose", "--g", G_JSON, "--h", H_JSON, "--text"]) == 0
    assert capsys.readouterr().out == "x1 -> x1 x2\nx2 -> x2 x1 x2\n"
    with pytest.raises(AssertionError, match="deferred inverse"):
        main(["compose", "--g", G_JSON, "--h", H_JSON])  # JSON prints the inverse


def test_two_component_tuple_product_text(capsys):
    argv = ["tuple-product", "--m", "1", "--gs", f"[{G_JSON},{H_JSON}]", "--hs", f"[{H_JSON},{G_JSON}]"]
    assert main([*argv, "--text"]) == 0
    assert capsys.readouterr().out == (
        "m=1 N=1\ncomponent 1:\nx1 -> x1 x2\nx2 -> x3 x1 x2\nx3 -> x2\n"
        "component 2:\nx1 -> x1 x3\nx2 -> x3\nx3 -> x2 x1\n"
    )


def test_text_is_an_option_of_every_verb_but_verify(capsys):
    verbs = ("reduce", "compose", "invert", "coset-product", "star-product", "tuple-product")
    verbs += ("rep-matrix", "verify")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{" + ",".join(verbs) + "}" in capsys.readouterr().out
    for verb in verbs:
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert ("[--text]" in capsys.readouterr().out) == (verb != "verify")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--text"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --text\n")


def test_rep_matrix_text(capsys):
    assert main(["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--text"]) == 0
    assert capsys.readouterr().out == "1/2 1/2\n1/2 1/2\n"
    # m = 0: a one-row matrix
    assert main(["rep-matrix", "--group", "c2", "--m", "0", "--g", G_JSON, "--text"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_rep_matrix_compressed_identity(capsys):
    ident = '{"images": {}, "inverse_images": {}}'
    assert main(
        ["rep-matrix", "--group", "s3", "--m", "1", "--g", ident, "--u", "0,1,2,3,4,5"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_rep_matrix_abelian_compression_is_noop(capsys):
    assert main(["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--u", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_rep_matrix_truncation_flag(capsys):
    # the grid is always the minimal one, so there is no option to widen it
    with pytest.raises(SystemExit) as exc:
        main(["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--truncation", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "autcosets: error: unrecognized arguments: --truncation 4"
    )


def test_rep_matrix_group_json(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_text('{"order": 2, "mul": [[0, 1], [1, 0]], "unit": 0}')
    assert main(["rep-matrix", "--group", str(path), "--m", "1", "--g", G_JSON]) == 0
    assert capsys.readouterr().out == GOLDEN_MATRIX.decode()


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "words", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "FAIL" not in out


def test_verify_runs_the_automorphisms_suite(capsys):
    assert main(["verify", "--suite", "automorphisms", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("ok   automorphisms.") for line in lines[:-1])
    assert lines[-1] == f"passed {len(lines) - 1}/{len(lines) - 1}"


def test_run_suites_all_runs_every_suite_and_passes():
    results = run_suites("all", 0)
    assert len(results) == 18 and all(res.passed for res in results)


def test_the_cosets_suite_draws_pairs_on_the_first_m_plus_2_generators():
    # each factor moves only x1..x(m+2), and some draw at each m reaches x(m+2)
    rng = random.Random(0)
    reached = set()
    for _ in range(200):
        m, g, h = verify._pair(rng, 8)
        assert m in (1, 2)
        for factor in (g, h):
            assert factor.support_bound() <= m + 2
            if factor.support_bound() == m + 2:
                reached.add(m)
    assert reached == {1, 2}


def test_run_suites_defaults_to_seed_0_and_refuses_an_unknown_suite(monkeypatch):
    # a passing suite reads the same at every seed, so this one reports its first draw
    monkeypatch.setitem(
        verify.SUITES, "words", lambda rng: [CheckResult("draw", True, str(rng.random()))]
    )
    assert run_suites("words") == run_suites("words", seed=0)
    assert run_suites("words") != run_suites("words", seed=1)
    choices = "choose from words, automorphisms, cosets, representation or all"
    for name, echo in (("nope", "'nope'"), ("n" * 100, f"{'n' * 24!r}...")):
        with pytest.raises(ValueError) as exc:
            run_suites(name)
        assert str(exc.value) == f"unknown suite {echo}; {choices}"


def test_verify_reports_a_failing_law(capsys, monkeypatch):
    monkeypatch.setattr(
        "autcosets.verify.product_formula_direct", lambda *_: identity_automorphism()
    )
    assert main(["verify", "--suite", "cosets"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL cosets.direct_formula_agrees (25 random pairs)"
    assert all(line.startswith("ok   cosets.") for line in lines[1:-1])
    assert lines[-1] == f"passed {len(lines) - 2}/{len(lines) - 1}"


def test_verify_has_no_point_budget(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-points", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    # its inputs are fixed and small, and a budget in the environment is not read
    monkeypatch.setenv("COSET_MAX_POINTS", "10")
    assert main(["verify", "--suite", "representation"]) == 0
    assert "FAIL" not in capsys.readouterr().out


# --- error handling -------------------------------------------------------

def test_domain_errors_exit_1(capsys):
    assert main(["reduce", "x0"]) == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = '{"images": {"1": [[2,1]]}, "inverse_images": {"1": [[1,1]]}}'
    assert main(["invert", "--g", bad]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert main(["rep-matrix", "--group", "e7", "--m", "1", "--g", G_JSON]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert main(["rep-matrix", "--group", "c2", "--m", "1", "--g", "/no/such/file.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "path, code, echo",
    [
        ("nope.json", errno.ENOENT, "'nope.json'"),
        ("a" * 5000, errno.ENAMETOOLONG, f"{'a' * 24!r}..."),
        ("a/" * 130, errno.ENOENT, f"{'a/' * 12!r}..."),
    ],
    ids=["short", "too-long", "long-missing"],
)
def test_an_unreadable_path_is_echoed_short(capsys, monkeypatch, tmp_path, path, code, echo):
    monkeypatch.chdir(tmp_path)
    assert main(["invert", "--g", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # a short path keeps the bytes of OSError's own message
    assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: {echo}\n"


def test_non_integer_letters_exit_1(capsys):
    bad = '{"images": {"1": [[1.7, -1]]}, "inverse_images": {"1": [[true, -1]]}}'
    # reduce refuses each letter below: read leniently, the first four would
    # give x1 -> x1, the identity, whose inverse {} would then verify
    letters = ["[true,1]", "[1,1.0]", '["1",1]', "[null,1]", "[1,2]"]
    for doc in [bad] + [f'{{"images": {{"1": [{x}]}}, "inverse_images": {{}}}}' for x in letters]:
        assert main(["invert", "--g", doc]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"images": {"1": [[true,1]]}, "inverse_images": {}}',
         "generator index must be an integer, got True, in the image of x1 in images"),
        ('{"images": {"1": [[1,1]]}, "inverse_images": {"2": [[2,1],[1,1.5]]}}',
         "letter sign must be an integer, got 1.5, in the image of x2 in inverse_images"),
        ('{"images": {"3": [[3,2]]}, "inverse_images": {}}',
         "letter sign must be +1 or -1, got 2, in the image of x3 in images"),
    ],
)
def test_a_refused_letter_names_its_field_and_generator(capsys, doc, message):
    assert main(["invert", "--g", doc]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["reduce", "invert"])
def test_an_index_over_the_digit_limit_is_named(capsys, int_digit_limit, verb):
    digits = "9" * (int_digit_limit + 700)
    if verb == "reduce":
        argv = ["reduce", f"x1 x{digits}"]
        message = f"generator index in {'x' + digits[:23]!r}... has"
    else:
        argv = ["invert", "--g", f'{{"images": {{"{digits}": [[1,1]]}}, "inverse_images": {{}}}}']
        message = f"generator key {digits[:24]!r}... in images has"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {message} {len(digits)} digits, over the limit of {int_digit_limit}\n"
    )


@pytest.mark.parametrize(
    "max_points, u, message",
    [
        ("0", None, "max_points must be >= 1, got 0"),
        (None, "a", "--u must list integers, got 'a'"),
        (None, "0, 3,x4", "--u must list integers, got 'x4'"),
        (None, "0,-+5", "--u must list integers, got '-+5'"),
    ],
)
def test_bad_integer_inputs_are_named(capsys, max_points, u, message):
    argv = ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON]
    argv += ["--max-points", max_points] if max_points is not None else []
    assert main(argv + (["--u", u] if u is not None else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_long_integer_in_u_or_the_environment_is_named_by_its_digits(capsys, int_digit_limit):
    nines = "9" * 5000
    argv = ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON, "--u", f"0,{nines}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --u member has 5000 digits, over the limit of {int_digit_limit}\n"


def test_rep_matrix_reads_u_before_it_builds_the_matrix(capsys, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the matrix was built before --u was read")

    monkeypatch.setattr(cli, "markov_matrix", no_matrix)
    for u, message in (
        ("x", "--u must list integers, got 'x'"),
        ("5", "subgroup members out of range"),
    ):
        assert main(["rep-matrix", "--group", "c2", "--m", "11", "--g", G_JSON, "--u", u]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# every integer option, its value to follow
INTEGER_OPTIONS = [
    ["coset-product", "--g", G_JSON, "--h", H_JSON, "--m"],
    ["star-product", "--g", G_JSON, "--h", H_JSON, "--m"],
    ["tuple-product", "--gs", f"[{G_JSON}]", "--hs", f"[{H_JSON}]", "--m"],
    ["rep-matrix", "--group", "c2", "--g", G_JSON, "--m"],
    ["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--max-points"],
    ["verify", "--seed"],
]


@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_an_integer_option_echoes_its_value_short(capsys, int_digit_limit, argv):
    option = argv[-1]
    cases = [
        # a short value keeps the bytes of argparse's type=int
        ("abc", "invalid int value: 'abc'"),
        ("+-5", "invalid int value: '+-5'"),
        ("y" * 5000, f"invalid int value: {'y' * 24!r}..."),
        ("9" * 5000, f"value has 5000 digits, over the limit of {int_digit_limit}"),
    ]
    for value, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last == f"autcosets {argv[0]}: error: argument {option}: {message}"
        assert len(last.encode()) <= 120


def _invert(images: str) -> list[str]:
    return ["invert", "--g", f'{{"images": {{{images}}}, "inverse_images": {{}}}}']


NINES = "9" * 5000
# each echoes outside input of thousands of characters in its message
LONG_INPUTS = {
    "word token": ["reduce", "x1 y" + NINES],
    "generator key": _invert(f'"y{NINES}": []'),
    "letter": _invert(f'"1": [[{", ".join(["1"] * 3000)}]]'),
    "string index": _invert(f'"1": [["{"a" * 5000}", 1]]'),
    "sign": _invert(f'"1": [[1, {NINES[:4000]}]]'),
    "index below its floor": _invert(f'"1": [[-{NINES[:4000]}, 1]]'),
    "--u member": ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON, "--u", "0,y" + NINES],
    "--group name": ["rep-matrix", "--group", "z" * 5000, "--m", "1", "--g", G_JSON],
    "--group cyclic order": ["rep-matrix", "--group", "c" + NINES, "--m", "1", "--g", G_JSON],
    "JSON integer": _invert(f'"1": [[{NINES}, 1]]'),
    "generator index": _invert(f'"{NINES[:4000]}": 1'),
    "repeated JSON key": ["invert", "--g", f'{{"y{NINES}": 1, "y{NINES}": 1}}'],
}


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_long_input_gets_a_short_error(capsys, request, case):
    if case in ("JSON integer", "--group cyclic order"):
        request.getfixturevalue("int_digit_limit")
    assert main(LONG_INPUTS[case]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 120, captured.err


# x1 -> x1 x_k for k of 4,300 nines, within the digit limit, so the loader accepts it
NEAR_LIMIT_JSON = G_JSON.replace("[2,", f"[{NINES[:4300]},")
# each prints, in a refusal, a size or a group name thousands of characters long
LONG_SIZES = {
    "block size": ["coset-product", "--m", "1", "--g", NEAR_LIMIT_JSON, "--h", H_JSON],
    "point exponent": ["rep-matrix", "--group", "c2", "--m", "1", "--g", NEAR_LIMIT_JSON],
    "cyclic order": ["rep-matrix", "--group", "c" + NINES[:4000], "--m", "1", "--g", G_JSON],
    "--m": ["rep-matrix", "--group", "c2", "--m", NINES[:4000], "--g", G_JSON],
    "JSON group name": [
        "rep-matrix", "--group", json.dumps({"mul": [[0, 1], [1, 0]], "name": "A" * 3000}),
        "--m", "1", "--g", G_JSON, "--max-points", "1",
    ],
    "JSON group name with a newline": [
        "rep-matrix", "--group", json.dumps({"mul": [[0, 1], [1, 0]], "name": "a\nb"}),
        "--m", "1", "--g", G_JSON, "--max-points", "1",
    ],
}


@pytest.mark.parametrize("case", LONG_SIZES)
def test_a_long_size_or_name_gets_a_short_error(capsys, int_digit_limit, case):
    assert main(LONG_SIZES[case]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200, captured.err


@pytest.mark.parametrize(
    "g, message",
    [
        ('{"images": {"1": [[1,-1]], "01": [[1,1]]}, "inverse_images": {}}', "a second time"),
        ('{"images": {"1": [[1,-1]], "1": [[1,1]]}, "inverse_images": {}}', "repeats the key '1'"),
        ('{"images": {}, "inverse_images": {}, "images": {}}', "repeats the key 'images'"),
    ],
)
def test_repeated_json_keys_exit_1(capsys, g, message):
    assert main(["compose", "--g", g, "--h", IDENTITY_JSON]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err
    assert main(["tuple-product", "--m", "1", "--gs", f"[{g}]", "--hs", f"[{IDENTITY_JSON}]"]) == 1
    assert message in capsys.readouterr().err


def test_a_tuple_argument_that_is_no_array_exit_1(capsys):
    assert main(["tuple-product", "--m", "1", "--gs", "{}", "--hs", "[]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a JSON array of automorphisms\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_json_integer_over_the_digit_limit_is_named_by_its_digits(capsys, int_digit_limit, sign):
    token = sign + "9" * 5000
    doc = f'{{"images": {{"1": [[{token}, 1]]}}, "inverse_images": {{}}}}'
    assert main(["invert", "--g", doc]) == 1
    assert capsys.readouterr().err == (
        f"error: JSON integer {token[:24]!r}... has 5000 digits, over the limit of {int_digit_limit}\n"
    )


def test_non_inverse_pair_exit_1(capsys):
    bad = '{"images": {"1": [[1,1],[2,1]]}, "inverse_images": {"1": [[2,-1],[1,1]]}}'
    for argv in (
        ["compose", "--g", bad, "--h", G_JSON],
        ["coset-product", "--m", "1", "--g", G_JSON, "--h", bad],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "do not compose to the identity" in captured.err


@pytest.mark.parametrize(
    "verb, target, argv",
    [
        ("rep-matrix", "markov_matrix", ["--group", "c2", "--m", "1", "--g", G_JSON]),
        ("coset-product", "coset_product", ["--m", "1", "--g", G_JSON, "--h", H_JSON]),
    ],
)
def test_memory_error_exit_1(capsys, monkeypatch, verb, target, argv):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, out_of_memory)
    assert main([verb, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {verb}: out of memory\n"


def test_output_cells_over_budget_exit_1(capsys):
    # 2^16 points pass the point budget, but the 2^16 x 2^16 matrix would
    # need 4.3e9 cells; the budget refuses it before anything is allocated
    swap = json.dumps(automorphism_to_dict(theta(0, 8)))
    assert main(["rep-matrix", "--group", "c2", "--m", "16", "--g", swap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: markov_matrix")
    assert str(2**32) in captured.err and "10000000" in captured.err


@pytest.mark.parametrize("far", [200, 20000])
def test_budget_error_names_a_huge_size_without_spelling_it_out(capsys, far):
    swap = json.dumps(automorphism_to_dict(nielsen_swap(1, far)))
    assert main(["rep-matrix", "--group", "c2", "--m", "1", "--g", swap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: averaging over c2^{far} needs 2^{far} points, over the limit of 10000000\n"
    )


def test_deeply_nested_json_exit_1(capsys):
    for argv in (
        ["invert", "--g", "[" * 100_000],
        ["rep-matrix", "--group", '{"mul": ' + "[" * 100_000, "--m", "1", "--g", G_JSON],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize(
    "group",
    [
        '{"mul": [[0,1],[1,0.9]], "unit": 0.4}',
        '{"mul": [[0,1],[1,0]], "unit": 0.4}',
        '{"mul": [[true,false],[false,true]]}',
        '{"order": "2", "mul": [[0,1],[1,0]]}',
    ],
)
def test_non_integer_group_entries_exit_1(capsys, group):
    assert main(["rep-matrix", "--group", group, "--m", "1", "--g", G_JSON]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: '") and captured.err.count("\n") == 1
    assert "must be an integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["coset-product", "--m", "1", "--g", FAR_JSON, "--h", H_JSON],
        ["star-product", "--m", "1", "--g", G_JSON, "--h", FAR_JSON],
        ["tuple-product", "--m", "1", "--gs", f"[{G_JSON}]", "--hs", f"[{FAR_JSON}]"],
    ],
)
def test_unbounded_block_size_exit_1(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: block size of the coset product needs 999999999 generators per block, "
        "over the limit of 10000\n"
    )


def test_order_one_group_past_the_coordinate_limit_exit_1(capsys):
    start = time.perf_counter()
    assert main(["rep-matrix", "--group", "c1", "--m", "1000000000", "--g", IDENTITY_JSON]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: averaging over c1^1000000000 needs 1000000000 coordinates, "
        "over the limit of 10000\n"
    )


def test_large_builtin_group_exit_1(capsys):
    assert main(["rep-matrix", "--group", "c4000", "--m", "1", "--g", G_JSON]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: builtin group c4000 needs 16000000 table cells, "
        "over the limit of 10000000\n"
    )


@pytest.mark.parametrize("name", ["c\u00b3", "c\u0663"])
def test_non_ascii_cyclic_order_exit_1(capsys, name):
    assert main(["rep-matrix", "--group", name, "--m", "1", "--g", G_JSON]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown builtin group {name!r}\n"


def test_cached_parser_prints_what_a_fresh_parser_prints(monkeypatch):
    # one process, many verbs: a usage error, then valid calls, then verify
    calls = [
        ["reduce", "x1 x2 x2^-1"],
        ["coset-product", "--m", "1", "--g", G_JSON],
        ["coset-product", "--m", "1", "--g", G_JSON, "--h", H_JSON],
        ["compose", "--g", G_JSON, "--h", H_JSON, "--text"],
        ["invert", "--g", G_JSON],
        ["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--u", "0,1"],
        ["reduce", "x0"],
        ["tuple-product", "--m", "1", "--gs", f"[{G_JSON}]", "--hs", f"[{H_JSON}]", "--text"],
        ["verify", "--suite", "words", "--seed", "2"],
        ["reduce", "x1", "--text"],
    ]

    def transcript():
        lines = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            lines.append((code, out.getvalue(), err.getvalue()))
        return lines

    cached = transcript()
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0, 0, 1, 0, 0, 0]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == transcript()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coset-product", "--m", "1", "--g", G_JSON])  # missing --h
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


LONG_Z = "z" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        [LONG_Z],
        ["verify", "--suite", LONG_Z],
        ["reduce", "x1", LONG_Z],
        ["reduce", "x1", *"a" * 3000],
        ["reduce", "x1", "'" + "\\" * 300],
    ],
    ids=["unknown verb", "invalid choice", "stray argument", "many stray arguments", "quote and backslashes"],
)
def test_a_usage_error_echoes_a_long_argument_cut(capsys, monkeypatch, argv):
    # argparse's own line, its message cut to its first _MAX_USAGE_ERROR characters
    start = time.perf_counter()
    last = _usage_error(capsys, argv)
    assert time.perf_counter() - start < 2
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    prog, message = _usage_error(capsys, argv).split(": error: ", 1)
    assert len(message) > cli._MAX_USAGE_ERROR
    assert last == f"{prog}: error: {message[:cli._MAX_USAGE_ERROR]}..."
    assert len(last.encode()) < 220


@pytest.mark.parametrize(
    "argv",
    [
        ["nope"],
        # the longest message a single short argument makes: the verb list
        ["z" * 24],
        ["verify", "--suite", "z" * 24],
        ["reduce", "x1", "a", "z z"],
        # quotes that open and close in different arguments
        ["reduce", "x1", "'a", *"bcdefghijklm", "n'"],
        ["coset-product", "--m", "1", "--g", G_JSON],
        # already cut by the integer reader, escapes and all
        ["coset-product", "--g", G_JSON, "--h", H_JSON, "--m", "a" * 23 + "\\" + "b" * 40],
        ["verify", "--suite", "\n" * 24],
    ],
    ids=["unknown verb", "long unknown verb", "invalid choice", "stray arguments", "split quotes", "missing option", "int option", "escapes"],
)
def test_a_usage_error_with_short_tokens_keeps_argparse_bytes(capsys, monkeypatch, argv):
    last = _usage_error(capsys, argv)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert _usage_error(capsys, argv) == last


@pytest.mark.parametrize("far, budget", [(33, 10**10), (65, 10**23)])
def test_a_raised_budget_meets_the_axis_limit_in_the_one_shape(capsys, far, budget):
    # coordinate i lies on axis -i; numpy 2 alone would refuse x65 in its own words
    swap = json.dumps(automorphism_to_dict(nielsen_swap(1, far)))
    argv = ["rep-matrix", "--group", "c2", "--m", "1", "--g", swap, "--max-points", str(budget)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: averaging over c2^{far} needs {far} coordinates, over the limit of 32\n"
    )


@pytest.mark.parametrize(
    "group, m, message",
    [
        ("q8", 21, "averaging over q8^21 needs 9223372036854775808 points"),
        ("q8", 24, "averaging over q8^24 needs 4722366482869645213696 points"),
        ("c5", 32, "averaging over c5^32 needs 23283064365386962890625 points"),
        ("c2", 30, "markov_matrix on c2^30 needs 1152921504606846976 cells"),
    ],
)
def test_a_raised_budget_meets_the_array_limit_in_the_one_shape(capsys, group, m, message):
    # numpy itself would refuse these in its own words, or wrap a row offset
    # past int64 without a word
    swap = json.dumps(automorphism_to_dict(nielsen_swap(1, 2)))
    argv = ["rep-matrix", "--group", group, "--m", str(m), "--g", swap, "--max-points", str(10**70)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}, over the limit of 1152921504606846975\n"


def test_point_budget_env_and_flag(capsys, monkeypatch):
    argv = ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON]
    # s3 at m=1 averages over s3^2, 36 points
    assert main(argv + ["--max-points", "10"]) == 1
    assert capsys.readouterr().err == "error: averaging over s3^2 needs 36 points, over the limit of 10\n"
    assert main(argv + ["--max-points", "100"]) == 0
    expected = capsys.readouterr()
    # --max-points is the one way to set the budget: the environment is not read
    monkeypatch.setenv("COSET_MAX_POINTS", "10")
    assert main(argv) == 0
    assert capsys.readouterr() == expected


# --- exit-code contract under mutated input ------------------------------

BASE_ARGV = [
    ["reduce", "x1 x2^-1"],
    ["compose", "--g", G_JSON, "--h", H_JSON],
    ["invert", "--g", G_JSON, "--text"],
    ["coset-product", "--m", "1", "--g", G_JSON, "--h", H_JSON],
    ["star-product", "--m", "2", "--g", G_JSON, "--h", H_JSON],
    ["tuple-product", "--m", "1", "--gs", f"[{G_JSON}]", "--hs", f"[{H_JSON}]"],
    ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON, "--u", "0,1,2"],
    ["rep-matrix", "--group", '{"mul": [[0,1],[1,0]], "unit": 0}', "--m", "1", "--g", G_JSON],
    ["verify", "--suite", "words", "--seed", "3"],
    ["coset-product", "--m", "1", "--g", FAR_JSON, "--h", H_JSON],
    ["rep-matrix", "--group", "c4000", "--m", "1", "--g", G_JSON],
]

json_st = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
images_st = st.dictionaries(
    st.sampled_from(["1", "2", "0", "x", "3"]), st.lists(st.lists(json_st, max_size=3), max_size=3),
    max_size=2,
)
# a replacement token: an automorphism- or group-shaped or arbitrary JSON document, a swap
# with a huge generator index, a large builtin group, text or an integer
token_st = st.one_of(
    st.builds(
        lambda i, j: json.dumps(automorphism_to_dict(nielsen_swap(i, j))),
        st.integers(1, 3),
        st.integers(10**4, 10**12),
    ),
    st.sampled_from(["c4000", "c10000000000"]),
    st.builds(lambda f, i: json.dumps({"images": f, "inverse_images": i}), images_st, images_st),
    st.builds(
        lambda mul, unit: json.dumps({"mul": mul, "unit": unit}),
        st.lists(st.lists(json_st, max_size=2), max_size=2),
        json_st,
    ),
    json_st.map(json.dumps),
    st.text(max_size=10),
    st.integers(-(10**20), 10**20).map(str),
)
# an edit: delete any token (None), or cut a value to a prefix (int) or replace it (str)
edit_st = st.tuples(st.integers(0, 20), st.none() | st.integers(0, 120) | token_st)


@settings(max_examples=40)
@given(st.sampled_from(BASE_ARGV), st.lists(edit_st, min_size=1, max_size=3))
def test_exit_code_contract_under_mutation(base, edits):
    argv = list(base)
    for pos, edit in edits:
        values = [i for i, arg in enumerate(argv) if i > 0 and not arg.startswith("--")]
        if edit is None and argv:
            del argv[pos % len(argv)]
        elif values:
            i = values[pos % len(values)]
            argv[i] = argv[i][:edit] if isinstance(edit, int) else edit
    out, err = io.StringIO(), io.StringIO()
    # any other exception out of main fails the test: from the console
    # script it would print a traceback
    with mock.patch.object(sys, "stdin", io.StringIO("")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 1:
        assert out.getvalue() == "" and err.startswith("error: ") and err.count("\n") == 1, argv
