"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import CLI_VERBS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# pools of the cheapest items of each workload (strata are ordered cheapest first)
TINY_POOL = {"products": 4, "matrices": 4, "points": 5, "cli": len(CLI_VERBS)}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_pools_leave_ten_items_beyond_p90():
    assert all(w.pool >= 100 for w in WORKLOADS.values())


def _tiny(monkeypatch, name: str) -> None:
    """Shrink ``name``'s pool to its cheapest items, restored after the test."""
    monkeypatch.setattr(WORKLOADS[name], "pool", TINY_POOL[name])


@pytest.mark.parametrize("trace, seed", [(0, 0), (0, 1), (1, 0)])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, seed, monkeypatch, capsys, tmp_path):
    _tiny(monkeypatch, workload)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    for var in run.THREAD_VARIABLES:  # main() pins them; restore them afterwards
        monkeypatch.setenv(var, "1")
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
    ])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _measure(monkeypatch, name: str) -> dict:
    """A warm-up pass and one timed pass over the tiny pool."""
    _tiny(monkeypatch, name)
    return run.measure(WORKLOADS[name], run.DEFAULT_SEED, 0.0, 0.0)["result"]


def test_a_pool_longer_than_the_golden_list_is_refused():
    with pytest.raises(ValueError, match="golden digests"):
        run.Runner(None, WORKLOADS["products"], ["0" * 16], [None, None])


def _inject(monkeypatch, patch) -> None:
    """Apply ``patch`` to every freshly imported copy of the library."""
    load = run.load_library

    def load_patched():
        lib = load()
        patch(lib)
        return lib

    monkeypatch.setattr(run, "load_library", load_patched)


def test_perturbed_matrix_entry_is_counted_as_failed(monkeypatch):
    def patch(lib):
        matrix = lib.ratmat.RationalMatrix
        matmul = matrix.__matmul__

        def perturbed(self, other):
            rows = [list(row) for row in matmul(self, other).data]
            rows[0][0] += 1
            return matrix(rows)

        matrix.__matmul__ = perturbed

    _inject(monkeypatch, patch)
    result = _measure(monkeypatch, "matrices")
    assert result["failed"] == result["attempted"] == 8
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_wrong_cli_exit_code_is_counted_as_failed(monkeypatch):
    def patch(lib):
        main = lib.cli.main

        def always_zero(argv=None):
            main(argv)
            return 0

        lib.cli.main = always_zero

    _inject(monkeypatch, patch)
    result = _measure(monkeypatch, "cli")
    invalid = sum(verb.startswith("bad-") for verb in CLI_VERBS)
    assert result["failed"] == 2 * invalid and result["attempted"] == 2 * len(CLI_VERBS)
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - invalid / len(CLI_VERBS))


def test_changed_output_is_caught_by_the_golden_digest(monkeypatch):
    def patch(lib):
        to_dict = lib.automorphisms.automorphism_to_dict

        def reordered(a):
            doc = to_dict(a)
            return {"inverse_images": doc["inverse_images"], "images": doc["images"]}

        lib.automorphisms.automorphism_to_dict = reordered

    _inject(monkeypatch, patch)
    result = _measure(monkeypatch, "products")
    assert result["failed"] == result["attempted"] == 8


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "products", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
