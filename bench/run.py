"""Benchmark driver for autcosets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single client, in this one
process and thread, against the library in ``src/`` next to this directory.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"
SPANS_DIR = BENCH / "out"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("words", "automorphisms", "cosets", "groups", "ratmat", "repengine", "verify", "cli")
DEFAULT_SEED = 0
SETUP_REPEATS = 3


def load_library() -> SimpleNamespace:
    """Import ``autcosets`` afresh from SRC.  The namespace maps each layer
    name to its module (None for a layer that no longer exists) and
    ``autcosets`` to the package, so items call ``lib.cosets.coset_product``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "autcosets" or n.startswith("autcosets.")]:
        del sys.modules[name]
    package = importlib.import_module("autcosets")
    if Path(package.__file__).resolve().parent != SRC / "autcosets":
        raise ImportError(f"autcosets imported from {package.__file__}, not from {SRC}")
    modules = {"autcosets": package}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"autcosets.{layer}")
        except ModuleNotFoundError:
            modules[layer] = None
    return SimpleNamespace(**modules)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def golden_digests(workload: str, seed: int) -> list:
    """The committed digests of the default seed; none for any other seed."""
    if seed != DEFAULT_SEED:
        return []
    return json.loads(GOLDEN.read_text())["digests"][workload]


class Runner:
    """Runs pool items and checks each result.

    An item fails when an exact identity is false, an exception escapes,
    its output digest differs from the golden digest (default seed only) or
    from the digest of its own first run, or the workload's extra check
    rejected that first output.  Only the item itself is timed."""

    def __init__(self, lib: SimpleNamespace, workload, golden: list, items: list):
        if golden and len(golden) < len(items):
            raise ValueError(f"{len(golden)} golden digests for a pool of {len(items)} items")
        self.lib = lib
        self.workload = workload
        self.items = items
        self.golden = golden
        self.first = [None] * len(items)
        self.mismatch = [False] * len(items)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_in = 0
        self.bytes_out = 0

    def one(self, index: int) -> float:
        """Run item ``index`` once, check it, and return its latency."""
        item = self.items[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            ok, payload = self.workload.run(self.lib, item)
        except Exception as exc:  # an unexpected exception fails the item
            elapsed = time.perf_counter() - start
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        if self.workload.traffic:
            bytes_in, bytes_out = self.workload.traffic(item, payload)
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
        d = digest(payload)
        if self.first[index] is None:
            self.first[index] = d
            check = self.workload.check
            try:
                self.mismatch[index] = bool(check) and not check(self.lib, item, payload)
            except Exception:  # the library failed where the item succeeded
                self.mismatch[index] = True
        if not ok:
            self._fail(index, "exact identity false")
        elif self.golden and d != self.golden[index]:
            self._fail(index, f"digest {d} differs from golden {self.golden[index]}")
        elif d != self.first[index]:
            self._fail(index, "output changed between passes")
        elif self.mismatch[index]:
            self._fail(index, "output differs from the library's result")
        return elapsed

    def _fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"item {index}: {reason}")


def warm_up(runner: Runner) -> None:
    """One untimed pass: first runs fill caches and record each item's
    digest, and every item is checked once before timing starts."""
    for index in range(len(runner.items)):
        runner.one(index)


def _setup(workload, seed: int):
    start = time.perf_counter()
    lib = load_library()
    items = workload.inputs(lib, seed, workload.pool)
    return time.perf_counter() - start, lib, items


def measure(workload, seed: int, seconds: float, import_s: float) -> dict:
    """Untraced run: end-to-end metrics.

    The timed loop cycles through the pool for ``seconds``, and at least
    once.  An item's latency is the fastest of its timed runs: the machine's
    speed drifts over seconds, and the best run of each item is what a run
    of the same code reproduces.  ``items_per_s`` is the pool size over the
    sum of those latencies, and p50/p90 are taken over the pool.

    Set-up runs before the timed loop, again half-way through it and again
    after it, so that the median set-up time does not rest on one stretch
    of a machine whose speed drifts.  The middle one is not counted in the
    timed loop's duration."""
    elapsed, lib, items = _setup(workload, seed)
    setups = [elapsed]
    runner = Runner(lib, workload, golden_digests(workload.name, seed), items)
    warm_up(runner)
    best = [math.inf] * len(items)
    done = 0
    start = time.perf_counter()
    while done < len(items) or time.perf_counter() - start < seconds:
        index = done % len(items)
        best[index] = min(best[index], runner.one(index))
        done += 1
        if len(setups) == 1 and time.perf_counter() - start >= seconds / 2:
            setups.append(_setup(workload, seed)[0])
            start += setups[-1]
    ran_s = time.perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup(workload, seed)[0])
    p50 = 1e3 * statistics.median(best)
    p90 = 1e3 * statistics.quantiles(best, n=10)[8]
    metrics = {
        "items_per_s": (len(items) / sum(best), "1/s"),
        "item_ms_p50": (p50, "ms"),
        "item_ms_p90": (p90, "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (1 - runner.failed / runner.attempted, "fraction"),
    }
    notes = [
        f"{workload.name}: seed {seed}, pool {len(items)}, {done} timed items "
        f"({done / len(items):.1f} passes) in {ran_s:.1f} s after a warm-up pass",
        f"latency p50 {p50:.3f} ms, p90 {p90:.3f} ms over {len(items)} items (best of each); "
        f"setup {', '.join(f'{s:.3f}' for s in setups)} s + import {import_s:.3f} s",
    ]
    return _result(runner, metrics, notes)


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics over one traced set-up plus one traced
    pass over the pool, after untraced passes that give the overhead base."""
    import spans

    _, lib, items = _setup(workload, seed)
    runner = Runner(lib, workload, golden_digests(workload.name, seed), items)
    warm_up(runner)
    untraced = 0.0
    passes = 0
    while passes == 0 or untraced < seconds / 2:
        untraced += sum(runner.one(i) for i in range(len(items)))
        passes += 1
    tracer = spans.Tracer()
    tracer.install(vars(lib))
    try:
        runner.items = workload.inputs(lib, seed, workload.pool)
        verify_idx = spans.TRACED.index("automorphisms.verify_inverse_pair")
        setup_verifications = tracer.calls[verify_idx]
        runner.bytes_in = runner.bytes_out = 0
        traced = 0.0
        for i in range(len(items)):
            tracer.item = i
            traced += runner.one(i)
    finally:
        tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.npz"
    tracer.dump(spans_path)

    metrics = {}
    for idx, name in enumerate(spans.TRACED):
        metrics[f"{name}.calls"] = (tracer.calls[idx], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[idx], "s")
    for counter, value in tracer.counts.items():
        metrics[counter] = (value, "count")
    metrics["automorphisms.verify_per_item"] = (
        (tracer.calls[verify_idx] - setup_verifications) / len(items), "count/item",
    )
    metrics["cli.bytes_in"] = (runner.bytes_in, "B")
    metrics["cli.bytes_out"] = (runner.bytes_out, "B")
    untraced_rate = passes * len(items) / untraced
    traced_rate = len(items) / traced
    metrics["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "fraction")

    ranked = sorted(range(len(spans.TRACED)), key=lambda i: -tracer.self_s[i])
    notes = [
        f"{workload.name}: seed {seed}, pool {len(items)}; traced one set-up and one pass "
        f"({traced:.2f} s) after a warm-up and {passes} untraced passes ({untraced:.2f} s); "
        f"spans in {os.path.relpath(spans_path)}",
        f"{'layer function':40s} {'calls':>9s} {'self_s':>10s}",
    ]
    notes += [
        f"{spans.TRACED[i]:40s} {tracer.calls[i]:9d} {tracer.self_s[i]:10.4f}"
        for i in ranked
        if tracer.calls[i]
    ]
    notes += [
        f"{name:40s} {value:.6g} {unit}"
        for name, (value, unit) in metrics.items()
        if not name.endswith((".calls", ".self_s"))
    ]
    if tracer.absent:
        notes.append(f"absent: {', '.join(tracer.absent)}")
    return _result(runner, metrics, notes)


def _result(runner: Runner, metrics: dict, notes: list) -> dict:
    return {
        "notes": notes,
        "problems": runner.problems,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autcosets" / "__init__.py").is_file():
        print(f"error: no autcosets package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARIABLES:  # one thread everywhere, set before numpy loads
        os.environ[var] = "1"
    import numpy  # noqa: F401  (its import is part of set-up time)

    import_s = time.perf_counter() - _PROCESS_T0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = measure_traced(workload, args.seed, args.seconds)
    else:
        out = measure(workload, args.seed, args.seconds, import_s)
    for line in out["notes"]:
        print(line)
    for line in out["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
