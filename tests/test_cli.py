"""Command-line interface.  The three documented invocations are pinned as
byte-for-byte golden outputs via subprocess; the remaining coverage drives
``main`` in-process for speed."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from autcosets import cli
from autcosets.automorphisms import automorphism_to_dict
from autcosets.cli import main
from autcosets.cosets import theta

G_JSON = '{"images": {"1": [[1,1],[2,1]]}, "inverse_images": {"1": [[1,1],[2,-1]]}}'
H_JSON = '{"images": {"2": [[2,1],[1,1]]}, "inverse_images": {"2": [[2,1],[1,-1]]}}'

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


def test_rep_matrix_text(capsys):
    assert main(["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--text"]) == 0
    assert capsys.readouterr().out == "1/2 1/2\n1/2 1/2\n"


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
    assert main(
        ["rep-matrix", "--group", "c2", "--m", "1", "--g", G_JSON, "--truncation", "4"]
    ) == 0
    assert capsys.readouterr().out == GOLDEN_MATRIX.decode()


def test_rep_matrix_group_json(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_text('{"order": 2, "mul": [[0, 1], [1, 0]], "unit": 0}')
    assert main(["rep-matrix", "--group", str(path), "--m", "1", "--g", G_JSON]) == 0
    assert capsys.readouterr().out == GOLDEN_MATRIX.decode()


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "words", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "FAIL" not in out


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


def test_non_integer_letters_exit_1(capsys):
    bad = '{"images": {"1": [[1.7, -1]]}, "inverse_images": {"1": [[true, -1]]}}'
    assert main(["invert", "--g", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


def test_point_budget_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("COSET_MAX_POINTS", "10")
    assert main(["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON]) == 1
    assert "error:" in capsys.readouterr().err

    # the explicit flag overrides the environment
    assert main(
        ["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON, "--max-points", "100"]
    ) == 0
    capsys.readouterr()

    monkeypatch.delenv("COSET_MAX_POINTS")
    assert main(["rep-matrix", "--group", "s3", "--m", "1", "--g", G_JSON]) == 0
