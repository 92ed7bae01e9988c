"""The one size-limit rule: ``errors.check_size`` compares every size with
its limit, and every refusal reads ``<layer> needs <size> <unit>, over the
limit of <limit>``."""

from __future__ import annotations

import pathlib
import re
import time

import pytest

import autcosets
from autcosets import ratmat
from autcosets.automorphisms import identity_automorphism, nielsen_swap, random_automorphism
from autcosets.cosets import MAX_BLOCK_SIZE, coset_product, stability_witness, theta
from autcosets.errors import SizeLimitError, check_size
from autcosets.groups import Subgroup, builtin_group, group_from_dict
from autcosets.ratmat import RationalMatrix
from autcosets.repengine import (
    action_map,
    compress_to_invariants,
    markov_matrix,
    projection_matrix,
    weak_limit_check,
)

SHAPE = re.compile(r"\S.* needs (\d+|\d+\^\d+) [a-z -]+, over the limit of \d+")

C1 = builtin_group("c1")
C2 = builtin_group("c2")
C3 = builtin_group("c3")
E = identity_automorphism()
G = random_automorphism(0, 4, 6, 17)


def test_a_size_at_the_limit_passes_and_one_more_is_refused():
    check_size("layer", 10, "points", 10)
    check_size("layer", 3, "cells", 9, 2)
    with pytest.raises(SizeLimitError) as exc:
        check_size("layer", 11, "points", 10)
    assert str(exc.value) == "layer needs 11 points, over the limit of 10"
    with pytest.raises(SizeLimitError) as exc:
        check_size("layer", 4, "cells", 15, 2)
    assert str(exc.value) == "layer needs 16 cells, over the limit of 15"


def test_a_power_far_over_the_limit_is_neither_built_nor_printed():
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as exc:
        check_size("x", 2, "points", 10, 10**9)
    assert time.perf_counter() - start < 0.01
    assert str(exc.value) == "x needs 2^1000000000 points, over the limit of 10"


def test_a_huge_size_without_a_power_is_printed_in_full():
    with pytest.raises(SizeLimitError) as exc:
        check_size("x", 10**30, "generators per block", 10)
    assert str(exc.value) == f"x needs {10**30} generators per block, over the limit of 10"


def _matmul_at_a_patched_limit(monkeypatch):
    monkeypatch.setattr(ratmat, "MAX_MATMUL_WORK", 12)
    b = RationalMatrix([[1, 0, 1], [0, 1, 1]])
    RationalMatrix(b.num.T) @ b


SITES = {
    "theta": (
        lambda mp: theta(0, MAX_BLOCK_SIZE + 1),
        "block swap theta needs 10001 generators per block, over the limit of 10000",
    ),
    "coset_product": (
        lambda mp: coset_product(1, nielsen_swap(1, 10**9), E),
        "block size of the coset product needs 999999999 generators per block, "
        "over the limit of 10000",
    ),
    "stability_witness": (
        lambda mp: stability_witness(0, 1, MAX_BLOCK_SIZE, E, E),
        "stability witness needs 10001 generators per block, over the limit of 10000",
    ),
    "builtin_group": (
        lambda mp: builtin_group("c3163"),
        "builtin group c3163 needs 10004569 table cells, over the limit of 10000000",
    ),
    "group_from_dict": (
        lambda mp: group_from_dict({"mul": [list(range(3163))] * 3163}),
        "group of order 3163 needs 10004569 table cells, over the limit of 10000000",
    ),
    "matmul": (
        _matmul_at_a_patched_limit,
        "matmul 3x2 @ 2x3 needs 18 multiply-adds, over the limit of 12",
    ),
    "markov_matrix points": (
        lambda mp: markov_matrix(C2, G, 1, truncation=30),
        "averaging over c2^30 needs 1073741824 points, over the limit of 10000000",
    ),
    "markov_matrix cells": (
        lambda mp: markov_matrix(C2, theta(0, 8), 16),
        "markov_matrix on c2^16 needs 4294967296 cells, over the limit of 10000000",
    ),
    "projection_matrix": (
        lambda mp: projection_matrix(C2, 0, 3, max_points=63),
        "projection_matrix on c2^3 needs 64 cells, over the limit of 63",
    ),
    "compress_to_invariants": (
        lambda mp: compress_to_invariants(
            C3, Subgroup.whole(C3), 2, RationalMatrix.identity(9), max_points=80
        ),
        "compress_to_invariants on c3^2 needs 81 cells, over the limit of 80",
    ),
    "action_map": (
        lambda mp: action_map(C2, G, 40),
        f"action on c2^40 needs {2**40} points, over the limit of 10000000",
    ),
    "weak_limit_check": (
        lambda mp: weak_limit_check(C2, 1, 2, 1, max_points=8),
        "weak limit over c2^4 needs 16 points, over the limit of 8",
    ),
    "order-1 coordinates": (
        lambda mp: markov_matrix(C1, E, 10_001),
        "averaging over c1^10001 needs 10001 coordinates, over the limit of 10000",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_every_refusal_has_one_shape(monkeypatch, site):
    build, message = SITES[site]
    with pytest.raises(SizeLimitError) as exc:
        build(monkeypatch)
    assert str(exc.value) == message
    assert SHAPE.fullmatch(str(exc.value))


def test_size_limit_errors_are_raised_in_errors_only():
    package = pathlib.Path(autcosets.__file__).parent
    raising = sorted(p.name for p in package.glob("*.py") if "SizeLimitError(" in p.read_text())
    assert raising == ["errors.py"]
    assert not hasattr(autcosets, "check_size") and "check_size" not in autcosets.__all__
