"""``random_automorphism``: the right-multiplication fold against the
left-composition oracle, pinned draws, and the work it does not do."""

from __future__ import annotations

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import autcosets.automorphisms as automorphisms
import autcosets.words as words
from autcosets.automorphisms import automorphism_to_dict, random_automorphism, verify_inverse_pair

from random_oracle import oracle_random_pair


@given(
    st.integers(0, 3),
    st.integers(1, 30),
    st.integers(0, 60),
    st.integers(),
)
def test_fold_matches_left_composition_oracle(m_fix, width, length, seed):
    a = random_automorphism(m_fix, m_fix + width, length, seed)
    fwd, inv = oracle_random_pair(m_fix, m_fix + width, length, seed)
    assert a.fwd.images == fwd.images
    assert a.inv.images == inv.images
    assert verify_inverse_pair(a.fwd, a.inv)
    assert verify_inverse_pair(a.inv, a.fwd)


# (m_fix, max_index, length, seed) -> SHA-256 of the compact, key-sorted JSON
# of automorphism_to_dict, as the left-composition fold drew them
GOLDEN_DIGESTS = {
    (0, 1, 0, 0): "0268a7bdf9bfcb83489becf5553e5eea439115f8d0c05e5f069cec9127343fa9",
    (0, 1, 7, 3): "6a47bae94ff8cf7e371b9252b3cd96d3c20656920e6e28f64e933ec77a11ff69",
    (0, 2, 1, 0): "943e095fc21a8eeb6c824ea22a77fcf6a13596662a5e39d5a89c28d9fbca652e",
    (0, 2, 9, 1): "54c3fd1a43daec2c87cd251e6514a0a24811a3f0615cb0bea19b2fec42a580f1",
    (0, 3, 6, 0): "7fbcb83b23c35003a674a3b8bf9058543c234b202889de993719c34ba167ae64",
    (0, 3, 20, 11): "dab5cd96a5131d7a0221c3a1e27e55dff24fa9faf62a850aa82b07bcd02fcf8a",
    (0, 5, 30, 42): "3f005b2137afb1d73934f9d83b31d1ad2b158c3f369cb92fa0717c91451fddfe",
    (0, 6, 60, 7): "b8d2e75173dcd20e9ff96a6c306e43f316040e2234c418e116b410452ab18882",
    (0, 8, 45, 0): "955baf3e99e661af472761c29128644cfc7ce5623443e949f579327719f84796",
    (1, 2, 5, 5): "943e095fc21a8eeb6c824ea22a77fcf6a13596662a5e39d5a89c28d9fbca652e",
    (1, 4, 10, 7): "85a687e576bb60a7ea234da30f97414cb89eace4d3ad1ce034bb9015249293be",
    (1, 4, 10, 8): "4113df3b5d404249684157c4a0bf06a277c39adb0bd1d4adf67354ab55353ef6",
    (2, 6, 12, 7): "2d75720cb16ba1b806e31513c2580d4d8bc6c6207f459b14c6cb50d2656a17d3",
    (2, 10, 80, 123): "765ff37d49f7532438002f5b81a72ba041307ea0464c184787f1762d34207e55",
    (3, 4, 5, 2): "d4894b4bb4aaebaeb73ecdf736a74659ad464c9b5ff67ecd9687bccd7fa7822b",
    (3, 11, 40, 99): "c93ad2b7a575579de10c8aaabea5f8c58aa2cfedb7e93e6a69609312264d1b34",
    (0, 40, 80, 2024): "a07efb576970bbfd4e97a13fa0cac5f254bf72e359076ad7b1cbcdfdaf4e2baa",
    (5, 45, 64, 1 << 29): "2feacab36bf9801795a0ba1f34183a006b46bdc82e21e7c717f3e242c8a9479d",
    (0, 10**6, 25, 17): "ffdea20b39230143eb9ec49650e0e8aaf07b91ce62c465265bbbaf527e45e286",
    (4, 9, 50, 31337): "233b1c17483c2f67a64e3dc2a0f159c1f56ce08af7a5ff7bb88ab57cedc84b69",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_DIGESTS))
def test_draws_are_pinned(args):
    doc = automorphism_to_dict(random_automorphism(*args))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[args]


def test_no_substitution_or_composition(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module in (automorphisms, words):
        monkeypatch.setattr(
            module, "_substitute_codes", counted("_substitute_codes", module._substitute_codes)
        )
    monkeypatch.setattr(
        automorphisms,
        "compose_endomorphisms",
        counted("compose_endomorphisms", automorphisms.compose_endomorphisms),
    )
    a = random_automorphism(0, 8, 45, 0)
    assert calls == []
    # the counters do count: the closing check substitutes
    assert verify_inverse_pair(a.fwd, a.inv)
    assert calls


@pytest.mark.parametrize("seed", range(3))
def test_huge_index_range_is_not_materialised(seed):
    tracemalloc.start()
    try:
        a = random_automorphism(0, 10**12, 5, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 1 <= a.support_bound() <= 10**12
    assert verify_inverse_pair(a.fwd, a.inv)


# (name, position, floor) of each integer argument; max_index has no
# constant floor, only the relational one above m_fix, and seed none at all
INTEGER_ARGUMENTS = [("m_fix", 0, 0), ("max_index", 1, None), ("length", 2, 0), ("seed", 3, None)]
VALID_ARGUMENTS = (0, 5, 5, 1)


def _with(position, value):
    args = list(VALID_ARGUMENTS)
    args[position] = value
    return args


@pytest.mark.parametrize("name, position", [case[:2] for case in INTEGER_ARGUMENTS])
@pytest.mark.parametrize("bad", [5.0, True, "5"])
def test_integer_arguments_refuse_non_integers(name, position, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        random_automorphism(*_with(position, bad))


@pytest.mark.parametrize(
    "name, position, floor", [case for case in INTEGER_ARGUMENTS if case[2] is not None]
)
def test_integer_arguments_refuse_values_below_their_floor(name, position, floor):
    with pytest.raises(ValueError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        random_automorphism(*_with(position, floor - 1))
    at_floor = random_automorphism(*_with(position, floor))
    assert random_automorphism(*_with(position, np.int64(floor))) == at_floor


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", None])
def test_seed_follows_the_integer_rule(bad):
    # unchecked, True and 1.0 would alias seed 1, 1.5 and "1" draw streams of
    # their own, and None would seed from the system's entropy
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
        random_automorphism(0, 5, 5, bad)
    assert random_automorphism(0, 5, 5, np.int64(7)) == random_automorphism(0, 5, 5, 7)


def test_max_index_must_leave_a_generator_free():
    with pytest.raises(ValueError, match="^max_index leaves no generators free to move$"):
        random_automorphism(3, 3, 5, 1)
    assert random_automorphism(3, np.int64(4), 5, 1) == random_automorphism(3, 4, 5, 1)
