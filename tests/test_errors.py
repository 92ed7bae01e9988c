"""The one size-limit rule: ``errors.check_size`` compares every size with
its limit, and every refusal reads ``<layer> needs <size> <unit>, over the
limit of <limit>``."""

from __future__ import annotations

import ast
import pathlib
import re
import time

import pytest

import autcosets
from autcosets import ratmat, repengine
from autcosets.automorphisms import (
    _image_lines,
    automorphism_from_dict,
    automorphism_to_dict,
    identity_automorphism,
    nielsen_right_mult,
    nielsen_swap,
    random_automorphism,
)
from autcosets.cosets import (
    MAX_BLOCK_SIZE,
    coset_product,
    product_formula_direct,
    stability_witness,
    theta,
)
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
from autcosets.words import _clip, _int_text, format_word

SHAPE = re.compile(r"\S.* needs (\d+|\d+\^\d+) [a-z -]+, over the limit of \d+")

C1 = builtin_group("c1")
C2 = builtin_group("c2")
C3 = builtin_group("c3")
E = identity_automorphism()
G = random_automorphism(0, 4, 6, 17)


def test_a_size_at_the_limit_passes_and_one_more_is_refused():
    check_size(lambda: "layer", 10, "points", 10)
    check_size(lambda: "layer", 3, "cells", 9, 2)
    with pytest.raises(SizeLimitError) as exc:
        check_size(lambda: "layer", 11, "points", 10)
    assert str(exc.value) == "layer needs 11 points, over the limit of 10"
    with pytest.raises(SizeLimitError) as exc:
        check_size(lambda: "layer", 4, "cells", 15, 2)
    assert str(exc.value) == "layer needs 16 cells, over the limit of 15"


def test_a_power_far_over_the_limit_is_neither_built_nor_printed():
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as exc:
        check_size(lambda: "x", 2, "points", 10, 10**9)
    assert time.perf_counter() - start < 0.01
    assert str(exc.value) == "x needs 2^1000000000 points, over the limit of 10"


def test_a_huge_size_without_a_power_is_cut_to_24_digits():
    with pytest.raises(SizeLimitError) as exc:
        check_size(lambda: "x", 10**30, "generators per block", 10)
    assert str(exc.value) == (
        f"x needs {str(10**30)[:24]}... generators per block, over the limit of 10"
    )


def _unrendered():
    raise AssertionError("a layer within its limit was rendered")


def test_a_check_within_its_limit_never_renders_its_layer(monkeypatch):
    check_size(_unrendered, 10, "points", 10)
    check_size(_unrendered, 3, "cells", 9, 2)
    with pytest.raises(AssertionError, match="was rendered"):
        check_size(_unrendered, 11, "points", 10)
    # every point-engine and matmul check hands check_size its layer unrendered
    layers = []

    def spy(layer, *args):
        layers.append(layer)
        check_size(_unrendered, *args)

    monkeypatch.setattr(repengine, "check_size", spy)
    monkeypatch.setattr(ratmat, "check_size", spy)
    monkeypatch.setattr(repengine, "_clip", lambda value: _unrendered())
    markov_matrix(C2, G, 1)
    action_map(C2, G, 4)
    RationalMatrix.identity(2) @ RationalMatrix.identity(2)
    monkeypatch.undo()
    assert [layer() for layer in layers] == [
        "averaging over c2^4", "averaging over c2^4", "averaging over c2^4",
        "markov_matrix on c2^1", "markov_matrix on c2^1", "markov_matrix on c2^1",
        "action on c2^4", "action on c2^4", "action on c2^4",
        "matmul 2x2 @ 2x2",
    ]


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
        lambda mp: projection_matrix(C2, 0, 12),
        "projection_matrix on c2^12 needs 16777216 cells, over the limit of 10000000",
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
        lambda mp: weak_limit_check(C2, 1, 2, 21),
        "weak limit over c2^24 needs 16777216 points, over the limit of 10000000",
    ),
    "axes": (
        lambda mp: markov_matrix(C2, nielsen_swap(1, 33), 1, max_points=2**33),
        "averaging over c2^33 needs 33 coordinates, over the limit of 32",
    ),
    "order-1 coordinates": (
        lambda mp: markov_matrix(C1, E, 10_001),
        "averaging over c1^10001 needs 10001 coordinates, over the limit of 10000",
    ),
    "array entries": (
        lambda mp: markov_matrix(C2, nielsen_swap(1, 2), 30, max_points=10**70),
        "markov_matrix on c2^30 needs 1152921504606846976 cells, "
        "over the limit of 1152921504606846975",
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


def test_refusals_print_ints_through_clip_alone():
    # _int_text renders words and maps, and is _clip's rule past the digit limit
    package = pathlib.Path(autcosets.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "_int_text" in p.read_text())
    assert naming == ["automorphisms.py", "words.py"]


def test_the_library_has_no_float():
    # no float or complex constant and no true division in any module
    package = pathlib.Path(autcosets.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# --- ints of more than 24 digits ----------------------------------------------

LONG = 10**30
CUT = f"{str(LONG)[:24]}..."

LONG_INT_PROBES = {
    "check_size power": (
        lambda: check_size(lambda: "x", LONG, "u", 10, LONG),
        f"x needs {CUT}^{CUT} u, over the limit of 10",
    ),
    "check_size limit": (
        lambda: check_size(lambda: "x", 2, "u", LONG, 10**6),
        f"x needs 2^1000000 u, over the limit of {CUT}",
    ),
    "markov_matrix m": (
        lambda: markov_matrix(C2, E, LONG),
        f"averaging over c2^{CUT} needs 2^{CUT} points, over the limit of 10000000",
    ),
    "action_map support": (
        lambda: action_map(C2, nielsen_swap(1, LONG), 1),
        f"automorphism moves x{CUT} but points have 1 coordinates",
    ),
    "action_map coordinates": (
        lambda: action_map(C1, E, LONG),
        f"action on c1^{CUT} needs {CUT} coordinates, over the limit of 10000",
    ),
    "markov_matrix support": (
        lambda: markov_matrix(C2, nielsen_swap(1, LONG), 1, truncation=2),
        f"truncation 2 is below the required bound {CUT}",
    ),
    "markov_matrix truncation": (
        lambda: markov_matrix(C2, E, 1, truncation=-LONG),
        f"truncation -{CUT[:23]}... is below the required bound 1",
    ),
    "product_formula_direct support": (
        lambda: product_formula_direct(1, 0, nielsen_swap(1, LONG), E),
        f"automorphism moves generators above 1 (support bound {CUT})",
    ),
}


@pytest.mark.parametrize("probe", LONG_INT_PROBES)
def test_an_int_over_24_digits_is_cut_in_every_refusal(probe):
    build, message = LONG_INT_PROBES[probe]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    assert len(message) < 120


# --- ints past the interpreter's digit limit ----------------------------------

BIG = 10**5000  # 5001 digits, over the default limit of 4300

HUGE_INT_PROBES = {
    "reduce sign": (
        lambda: autcosets.reduce([(1, BIG)]),
        "letter sign must be +1 or -1, got <5001-digit int>",
    ),
    "reduce index": (
        lambda: autcosets.reduce([(-BIG, 1)]),
        "generator index must be >= 1, got -<5001-digit int>",
    ),
    "theta j": (
        lambda: theta(0, BIG),
        "block swap theta needs <5001-digit int> generators per block, over the limit of 10000",
    ),
    "theta m": (lambda: theta(-BIG, 1), "m must be >= 0, got -<5001-digit int>"),
    "markov_matrix m": (
        lambda: markov_matrix(C2, E, BIG),
        "averaging over c2^<5001-digit int> needs 2^<5001-digit int> points, "
        "over the limit of 10000000",
    ),
    "markov_matrix truncation": (
        lambda: markov_matrix(C2, E, 1, truncation=BIG),
        "averaging over c2^<5001-digit int> needs 2^<5001-digit int> points, "
        "over the limit of 10000000",
    ),
    "markov_matrix negative truncation": (
        lambda: markov_matrix(C2, E, 1, truncation=-BIG),
        "truncation -<5001-digit int> is below the required bound 1",
    ),
    "action_map": (
        lambda: action_map(C2, E, BIG),
        "action on c2^<5001-digit int> needs 2^<5001-digit int> points, "
        "over the limit of 10000000",
    ),
    "projection_matrix": (
        lambda: projection_matrix(C2, 0, BIG),
        "projection_matrix on c2^<5001-digit int> needs 2^<5001-digit int> cells, "
        "over the limit of 10000000",
    ),
    "weak_limit_check": (
        lambda: weak_limit_check(C2, 0, 1, BIG),
        "weak limit over c2^<5001-digit int> needs 2^<5001-digit int> points, "
        "over the limit of 10000000",
    ),
    "check_size": (
        lambda: check_size(lambda: "x", BIG, "u", 10),
        "x needs <5001-digit int> u, over the limit of 10",
    ),
    "check_size exp 2": (
        lambda: check_size(lambda: "x", BIG, "u", 10, 2),
        "x needs <5001-digit int>^2 u, over the limit of 10",
    ),
    "check_size huge limit": (
        lambda: check_size(lambda: "x", 2, "u", BIG, 10**6),
        "x needs 2^1000000 u, over the limit of <5001-digit int>",
    ),
    "action_map support": (
        lambda: action_map(C2, nielsen_swap(1, BIG), 1),
        "automorphism moves x<5001-digit int> but points have 1 coordinates",
    ),
    "markov_matrix support": (
        lambda: markov_matrix(C2, nielsen_swap(1, BIG), 1, truncation=2),
        "truncation 2 is below the required bound <5001-digit int>",
    ),
    "product_formula_direct support": (
        lambda: product_formula_direct(1, 0, nielsen_swap(1, BIG), E),
        "automorphism moves generators above 1 (support bound <5001-digit int>)",
    ),
    "coset_product block size": (
        lambda: coset_product(1, nielsen_swap(1, BIG), E),
        "block size of the coset product needs <5000-digit int> generators per block, "
        "over the limit of 10000",
    ),
    "automorphism_to_dict key": (
        lambda: automorphism_to_dict(nielsen_swap(1, BIG)),
        "generator index <5001-digit int> has more digits than the limit",
    ),
    "automorphism_to_dict letter": (
        lambda: automorphism_to_dict(nielsen_right_mult(1, BIG)),
        "generator index <5001-digit int> has more digits than the limit",
    ),
    "order-1 coordinates": (
        lambda: markov_matrix(C1, E, BIG),
        "averaging over c1^<5001-digit int> needs <5001-digit int> coordinates, "
        "over the limit of 10000",
    ),
}


@pytest.mark.parametrize("probe", HUGE_INT_PROBES)
def test_an_int_past_the_digit_limit_is_named_by_its_size(int_digit_limit, probe):
    build, message = HUGE_INT_PROBES[probe]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    assert "-digit int>" in message and len(message) < 120


def test_a_map_past_the_digit_limit_renders_its_indices_by_size(int_digit_limit):
    big = "x<5001-digit int>"
    swap = nielsen_swap(1, BIG)
    assert repr(swap.fwd) == f"Endomorphism(x1 -> {big}, {big} -> x1)"
    assert format_word(swap.fwd.image(1)) == big
    assert format_word(((2, 1), (BIG, -1), (BIG, 1))) == f"x2 {big}^-1 {big}"
    assert _image_lines(nielsen_right_mult(BIG, 1).inv) == [f"{big} -> {big} x1^-1"]


def test_int_text_is_str_within_the_limit_and_counts_digits_past_it(int_digit_limit):
    limit = int_digit_limit
    for n in (0, 7, -7, 10**30, -(10**30), 10**limit - 1, -(10**limit - 1)):
        assert _int_text(n) == str(n)
    # the digit count is exact at every power of ten around the limit
    for k in range(limit + 1, limit + 40):
        assert _int_text(10 ** (k - 1)) == f"<{k}-digit int>"
        assert _int_text(10**k - 1) == f"<{k}-digit int>"
        assert _int_text(-(10**k - 1)) == f"-<{k}-digit int>"
    # a value whose repr meets such an int is named by its type
    assert _clip([BIG, 1, 1]) == "<list with a long int>"
    with pytest.raises(ValueError, match=r"^bad letter <list with a long int> in image of x1$"):
        automorphism_from_dict({"images": {"1": [[BIG, 1, 1]]}, "inverse_images": {}})
    assert _clip(BIG) == "<5001-digit int>" and _clip(2**100) == "126765060022822940149670..."
