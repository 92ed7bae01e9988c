"""Command-line interface.

Verbs:
    reduce          reduce a word given in text form
    compose         compose two automorphisms (second acts first)
    invert          invert an automorphism
    coset-product   block-stabilized product of two automorphisms
    star-product    conjugation-class variant of the product
    tuple-product   coordinatewise product of two automorphism tuples
    rep-matrix      exact averaged-action matrix over a finite group
    verify          seeded self-check suites

Automorphism arguments accept a file path, an inline JSON object, or ``-``
for stdin.  Output is compact JSON by default; ``--text``, which every verb
but ``verify`` takes, switches to a human-readable rendering.  Exit codes:
0 success, 1 domain error (bad input, support violation, failed
verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .automorphisms import (
    _automorphism_json,
    _image_lines,
    automorphism_from_dict,
    compose,
    invert,
)
from .cosets import coset_product, star_product, tuple_product
from .groups import Subgroup, builtin_group, group_from_dict
from .repengine import compress_to_invariants, markov_matrix
from .verify import SUITES, run_suites
from .words import _clip, _too_many_digits, format_word, parse_word


def _read_payload(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    stripped = spec.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return spec
    try:
        fh = open(spec, "r", encoding="utf-8")
    except OSError as err:
        # the message OSError prints, but with the path cut by ``_clip``
        raise OSError(err.errno, f"{err.strerror}: {_clip(spec)}") from None
    with fh:
        return fh.read()


def _unique_keys(pairs: list) -> dict:
    """JSON object hook refusing an object that repeats a key, which
    ``json`` would otherwise resolve silently to the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object repeats the key {_clip(key)}")
            seen.add(key)
    return obj


def _load_json(spec: str):
    text = _read_payload(spec)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        pass
    # a plain ValueError came from ``_unique_keys`` or from an integer over the
    # digit limit: parsing again through ``_parse_int``, only on this path,
    # raises the first of them again, an integer by its digit count (a JSON
    # integer token is ASCII digits after at most one "-", so it never meets
    # ``_parse_int``'s refusal of text that is no integer)
    return json.loads(text, object_pairs_hook=_unique_keys,
                      parse_int=lambda d: _parse_int(d, f"JSON integer {_clip(d)}", ""))


def _load_automorphism(spec: str):
    return automorphism_from_dict(_load_json(spec))


def _load_automorphism_list(spec: str):
    data = _load_json(spec)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of automorphisms")
    return [automorphism_from_dict(item) for item in data]


def _load_group(spec: str):
    stripped = spec.lstrip()
    if stripped.startswith("{") or spec == "-" or os.path.exists(spec):
        return group_from_dict(_load_json(spec))
    return builtin_group(spec)


def _emit(args, doc, text) -> int:
    """Print a verb's result: the compact JSON text ``doc()``, or ``text()``
    under ``--text``.  Only the one asked for is called, so ``--text`` never
    reads a composite's deferred inverse and JSON mode formats no text.
    Each verb writes its own JSON: an automorphism through
    ``_automorphism_json``, byte-identical to ``_compact`` of
    ``automorphism_to_dict``, and anything else through ``_compact``."""
    print(text() if args.text else doc())
    return 0


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _auto_text(a) -> str:
    return "\n".join(_image_lines(a.fwd)) or "identity"


def _matrix_text(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(" ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def _product_json(prod, field: str, value: str) -> str:
    """``_compact`` of ``{"m": prod.m, "N": prod.block, field: ...}``, given
    the JSON text ``value`` of the last entry."""
    return f'{{"m":{prod.m},"N":{prod.block},"{field}":{value}}}'


def _cmd_reduce(args) -> int:
    word = format_word(parse_word(args.word))
    return _emit(args, lambda: _compact(word), lambda: word)


def _cmd_automorphism(args) -> int:
    g = _load_automorphism(args.g)
    a = compose(g, _load_automorphism(args.h)) if args.verb == "compose" else invert(g)
    return _emit(args, lambda: _automorphism_json(a), lambda: _auto_text(a))


def _cmd_pair_product(args) -> int:
    # resolved per call, not bound into the parser, which is built once per process
    product = coset_product if args.verb == "coset-product" else star_product
    prod = product(args.m, _load_automorphism(args.g), _load_automorphism(args.h))
    return _emit(
        args,
        lambda: _product_json(prod, "rep", _automorphism_json(prod.rep)),
        lambda: f"m={prod.m} N={prod.block}\n{_auto_text(prod.rep)}",
    )


def _cmd_tuple_product(args) -> int:
    prod = tuple_product(args.m, _load_automorphism_list(args.gs), _load_automorphism_list(args.hs))
    return _emit(
        args,
        lambda: _product_json(prod, "reps", f"[{','.join(map(_automorphism_json, prod.reps))}]"),
        lambda: "\n".join(
            [f"m={prod.m} N={prod.block}"]
            + [f"component {i}:\n{_auto_text(r)}" for i, r in enumerate(prod.reps, start=1)]
        ),
    )


def _parse_int(text: str, name: str, refusal: str) -> int:
    """``int(text)`` for an integer read from the command line or a JSON
    document, the one reader of them.  Text that is no integer is refused
    by ``refusal`` followed by the text cut by ``_clip``; an integer with
    more digits than the interpreter converts, by ``name`` and its digit
    count against the limit."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isascii() and digits.isdigit():
            raise ValueError(f"{name} has {_too_many_digits(digits)}") from None
        raise ValueError(f"{refusal}{_clip(text)}") from None


def _int_option(text: str) -> int:
    """The ``type`` of every integer option: ``int`` with the message
    ``type=int`` gives, but the echo cut by ``_clip`` and an integer past
    the digit limit named by its digit count."""
    try:
        return _parse_int(text, "value", "invalid int value: ")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _cmd_rep_matrix(args) -> int:
    group = _load_group(args.group)
    g = _load_automorphism(args.g)
    # the subgroup is checked before the matrix, which may take long to build
    u = None if args.u is None else Subgroup(group, [
        _parse_int(x.strip(), "--u member", "--u must list integers, got ")
        for x in args.u.split(",")
        if x.strip()
    ])
    matrix = markov_matrix(group, g, args.m, max_points=args.max_points)
    if u is not None:
        matrix = compress_to_invariants(group, u, args.m, matrix, max_points=args.max_points)
    rows = matrix.to_strings()
    return _emit(args, lambda: _compact(rows), lambda: _matrix_text(rows))


def _cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed)
    for res in results:
        mark = "ok" if res.passed else "FAIL"
        print(f"{mark:4s} {res.name} ({res.detail})")
    passed = sum(1 for r in results if r.passed)
    print(f"passed {passed}/{len(results)}")
    return 0 if passed == len(results) else 1


# the most characters of a usage error kept before the cut: the longest
# verb's "autcosets coset-product: error: " prefix, this, "..." and the
# newline stay under 220 characters, and an unknown verb of 24 characters (a
# 175-character message that lists every verb) keeps its bytes
_MAX_USAGE_ERROR = 180


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` whose usage errors stay short however long the
    arguments they echo: a message over ``_MAX_USAGE_ERROR``
    characters is cut to its first ones, then ``...``.  The arguments
    themselves are never cut.  ``add_subparsers`` builds the verb parsers
    with this class."""

    def error(self, message: str):
        if len(message) > _MAX_USAGE_ERROR:
            message = f"{message[:_MAX_USAGE_ERROR]}..."
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autcosets",
        description="Block-stabilized products of free-group automorphisms "
        "and their exact matrix representations over finite groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word like 'x1 x2^-1 x2'")
    p.add_argument("word")
    p.set_defaults(func=_cmd_reduce)

    for name, help_text in (
        ("compose", "compose two automorphisms (second acts first)"),
        ("invert", "invert an automorphism"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--g", required=True, help="automorphism: path, inline JSON, or -")
        if name == "compose":
            p.add_argument("--h", required=True, help="automorphism applied first")
        p.set_defaults(func=_cmd_automorphism)

    for name in ("coset-product", "star-product"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} of two automorphisms")
        p.add_argument("--m", type=_int_option, required=True, help="size of the fixed base block")
        p.add_argument("--g", required=True)
        p.add_argument("--h", required=True)
        p.set_defaults(func=_cmd_pair_product)

    p = sub.add_parser("tuple-product", help="coordinatewise product of automorphism tuples")
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument("--gs", required=True, help="JSON array of automorphisms: path, inline, or -")
    p.add_argument("--hs", required=True)
    p.set_defaults(func=_cmd_tuple_product)

    p = sub.add_parser("rep-matrix", help="exact averaged-action matrix over a finite group")
    p.add_argument("--group", required=True, help="builtin name (c<n>, s3, d8, q8) or group JSON")
    p.add_argument("--m", type=_int_option, required=True, help="number of retained coordinates")
    p.add_argument("--g", required=True)
    p.add_argument("--u", help="comma-separated subgroup elements; compress onto orbit averages")
    p.add_argument("--max-points", type=_int_option, help="most points or matrix cells to build")
    p.set_defaults(func=_cmd_rep_matrix)

    # the one --text, for every verb but verify; added last, so usage ends in [--text]
    for p in sub.choices.values():
        p.add_argument("--text", action="store_true", help="plain text instead of JSON")

    p = sub.add_parser("verify", help="run seeded self-check suites")
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=_int_option, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.verb}: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
