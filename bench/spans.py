"""Spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each traced name wherever an ``autcosets``
module binds it (and each traced method on its class), so calls between
layers nest as child spans.  Every span keeps its name, start, end, parent
span and item id in memory; ``dump`` writes them out once the run ends.  A
span's self time is its duration minus the durations of its direct
children.  A traced name the library no longer defines is reported as
absent and counts zero calls.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

TRACED = (
    "words.reduce",
    "words.substitute",
    "automorphisms.compose",
    "automorphisms.verify_inverse_pair",
    "automorphisms.automorphism_from_dict",
    "automorphisms.automorphism_to_dict",
    "automorphisms.random_automorphism",
    "cosets.theta",
    "cosets.coset_product",
    "cosets.product_formula_direct",
    "cosets.star_product",
    "cosets.tuple_product",
    "cosets.witness_left",
    "cosets.witness_right",
    "cosets.stability_witness",
    "repengine.markov_matrix",
    "repengine.action_map",
    "repengine.compress_to_invariants",
    "repengine.weak_limit_check",
    "ratmat.matmul",
    "ratmat.eq",
    "ratmat.is_doubly_stochastic",
    "ratmat.to_strings",
    "groups.builtin_group",
    "verify.run_suites",
    "cli.main",
)

# traced names that are methods: name -> (class, attribute)
METHODS = {
    "ratmat.matmul": ("RationalMatrix", "__matmul__"),
    "ratmat.eq": ("RationalMatrix", "__eq__"),
    "ratmat.is_doubly_stochastic": ("RationalMatrix", "is_doubly_stochastic"),
    "ratmat.to_strings": ("RationalMatrix", "to_strings"),
}


# The hooks accept and ignore further arguments, so that a new keyword in
# the library does not break the traced run.


def _markov_points(K, g, m, truncation=None, *_, **__):
    return K.order ** (max(g.support_bound(), m) if truncation is None else int(truncation))


def _action_points(K, g, n_coords, *_, **__):
    return K.order ** n_coords


def _weak_points(K, m, m_cyl, j, *_, **__):
    return K.order ** (m + j + m_cyl)


def _matmul_mults(a, b):
    return a.rows * a.cols * b.cols


# work counted from a call's arguments: traced name -> (counter, function)
COUNTED = {
    "repengine.markov_matrix": ("repengine.points", _markov_points),
    "repengine.action_map": ("repengine.points", _action_points),
    "repengine.weak_limit_check": ("repengine.points", _weak_points),
    "ratmat.matmul": ("ratmat.matmul.mults", _matmul_mults),
}


class Tracer:
    """Call counts, self times and work counters per traced name, plus every
    span; ``item`` tags the spans of the item being run (-1 for set-up)."""

    def __init__(self):
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.counts = {counter: 0 for counter, _ in COUNTED.values()}
        self.absent: list[str] = []
        self.item = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("i")

    def install(self, modules) -> None:
        """Wrap every traced name in ``modules`` (layer name -> module)."""
        everywhere = [m for m in modules.values() if m is not None]
        for idx, name in enumerate(TRACED):
            layer, attr = name.split(".", 1)
            home = modules.get(layer)
            if name in METHODS:
                cls_name, attr = METHODS[name]
                owner = getattr(home, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                owners = [owner]
            else:
                original = getattr(home, attr, None)
                owners = everywhere
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, name, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, idx: int, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        counted = COUNTED.get(name)
        calls, self_s, counts = self.calls, self.self_s, self.counts
        ids, names, starts, ends, parents, items = (
            self.span_id, self.span_name, self.span_start,
            self.span_end, self.span_parent, self.span_item,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted is not None:
                counts[counted[0]] += counted[1](*args, **kwargs)
            span = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - span[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parents.append(parent[0])
                else:
                    parents.append(-1)
                ids.append(span[0])
                names.append(idx)
                starts.append(start)
                ends.append(end)
                items.append(self.item)

        return traced

    def dump(self, path) -> None:
        """Write every recorded span (ordered by span id) to an .npz file."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        columns = {
            "name": self.span_name, "start": self.span_start, "end": self.span_end,
            "parent": self.span_parent, "item": self.span_item,
        }
        np.savez(
            path,
            names=np.array(TRACED),
            id=np.frombuffer(self.span_id, dtype=np.int64)[order],
            **{key: np.frombuffer(col, dtype=col.typecode)[order] for key, col in columns.items()},
        )
