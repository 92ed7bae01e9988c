"""Finite groups given by verified multiplication tables, their subgroups,
and the built-in groups."""

from __future__ import annotations

__all__ = ["FiniteGroup", "GroupAxiomError", "Subgroup", "builtin_group", "group_from_dict"]

import functools
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DEFAULT_MAX_POINTS, check_size
from .words import _clip, _integer, _too_many_digits


class GroupAxiomError(ValueError):
    """A claimed multiplication table violates the group axioms."""


def _integer_table(rows: tuple) -> np.ndarray | None:
    """``rows`` as one integer array, or None if they are ragged or hold an
    integer beyond 64 bits.  Every entry passes ``_integer`` first, so the
    first in row-major order that is not an integer (a bool, float,
    string, ...) is refused by name."""
    rows = [[_integer(x, "'mul' entry") for x in row] for row in rows]
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows
        return None
    # numpy stores an int beyond 64 bits as a float or an object
    return arr if arr.dtype.kind in "iu" else None


def _greedy_generators(mul: np.ndarray, identity: int, members) -> Iterator[int]:
    """Generators, ascending, of the subgroup ``members`` (given ascending)
    of the table ``mul``: each is the smallest member not yet reached from
    the unit by right multiplication with the ones before it.  Each is
    yielded before it is used, so a caller may test it first.  In a group
    each at least doubles what is reached, so there are at most
    log2|members| of them.  Only one column of ``mul`` per generator is
    read, so a large table stays in numpy."""
    reached = {identity}
    columns: list[list[int]] = []  # the column of a maps x to x*a
    for a in members:
        if a in reached:
            continue
        yield a
        columns.append(mul[:, a].tolist())
        frontier = list(reached)
        while frontier:
            new = {col[x] for x in frontier for col in columns} - reached
            reached |= new
            frontier = list(new)


def _check_associative(arr: np.ndarray, identity: int) -> None:
    """Light's associativity test (Clifford & Preston 1961, section 1.2) on a
    table with a two-sided identity and two-sided inverses.

    The elements a with (xa)y = x(ay) for all x, y are closed under products,
    so it suffices to test the greedy generators: what they reach is built
    from them by products.  In a group that is a subgroup, so needing more
    than log2(n) generators proves the table is not associative.
    O(n^2 log n) in all."""
    n = len(arr)
    for count, a in enumerate(_greedy_generators(arr, identity, range(n))):
        # arr[arr[:, a]][x, y] = (xa)y,  arr[:, arr[a]][x, y] = x(ay)
        if count == n.bit_length() - 1 or not np.array_equal(arr[arr[:, a]], arr[:, arr[a]]):
            raise GroupAxiomError("multiplication table is not associative")


class FiniteGroup:
    """Group on elements 0..order-1 defined by a full multiplication table.

    The table is checked on construction: its n^2 cells against the point
    budget, then a two-sided identity, a unique two-sided inverse per
    element, and associativity by Light's test.  Table entries and the unit
    must be integers (``bool``, floats and strings are refused).  The table
    is stored once, as the read-only int32 arrays ``mul_np`` (``mul_np[a, b]``
    is the product a*b) and ``inv_np`` (``inv_np[a]`` is the inverse of a).
    A name, checked first, is None or at most 24 printable characters.
    """

    __slots__ = ("name", "order", "identity", "mul_np", "inv_np", "_hash", "__weakref__")

    def __init__(self, mul: Sequence[Sequence[int]], identity: int = 0, name: str | None = None):
        # refusals print the name as it stands, so it must fit on their one line
        if not (name is None or isinstance(name, str) and len(name) <= 24 and name.isprintable()):
            raise ValueError(f"group name {_clip(name)} must be at most 24 printable characters")
        mul = tuple(mul)
        n = len(mul)
        check_size(lambda: f"group of order {n}", n, "table cells", DEFAULT_MAX_POINTS, 2)
        arr = _integer_table(mul)
        identity = _integer(identity, "'unit'")
        if n == 0:
            raise GroupAxiomError("empty multiplication table")
        # range-checked before the cast, so no entry wraps around in int32
        if arr is None or arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
            raise GroupAxiomError("multiplication table must be square over 0..n-1")
        if not 0 <= identity < n:
            raise GroupAxiomError(f"unit {_clip(identity)} out of range")
        arr = arr.astype(np.int32)
        rng = np.arange(n, dtype=np.int32)
        if not (np.array_equal(arr[identity], rng) and np.array_equal(arr[:, identity], rng)):
            raise GroupAxiomError("designated unit is not a two-sided identity")
        is_unit = arr == identity
        inv = is_unit.argmax(axis=1)
        bad = (is_unit.sum(axis=1) != 1) | (arr[inv, rng] != identity)
        if bad.any():
            a = int(np.flatnonzero(bad)[0])
            raise GroupAxiomError(f"element {a} lacks a unique two-sided inverse")
        _check_associative(arr, identity)
        self._fill(arr, inv.astype(np.int32), identity, name)

    def _fill(self, arr: np.ndarray, inv: np.ndarray, identity: int, name) -> None:
        """Set the attributes from an int32 table known to satisfy the axioms."""
        arr.setflags(write=False)
        inv.setflags(write=False)
        self.mul_np = arr
        self.inv_np = inv
        self.identity = int(identity)
        self.order = len(arr)
        self.name = name or f"group{self.order}"
        # hashed once: groups key the orbit cache, and the table is n^2 cells
        self._hash = hash(arr.tobytes())

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        # the table determines the unit
        return self is other or np.array_equal(self.mul_np, other.mul_np)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup:
    """Subset of a FiniteGroup's elements verified closed under product and
    inverse and containing the unit.

    ``members`` is the sorted tuple of its elements, and every caller reads
    it: a Subgroup is no container, so it neither iterates, has a length,
    nor tests membership."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        mem = sorted({_integer(x, "subgroup member") for x in members})
        if mem and (mem[0] < 0 or mem[-1] >= parent.order):
            raise GroupAxiomError("subgroup members out of range")
        if parent.identity not in mem:
            raise GroupAxiomError("subgroup must contain the unit")
        idx = np.array(mem)
        inside = np.zeros(parent.order, dtype=bool)
        inside[idx] = True
        # row a: the inverse of a, then a*b for each member b, checked in this order
        checks = (parent.inv_np[idx, None], parent.mul_np[idx[:, None], idx])
        closed = inside[np.concatenate(checks, axis=1)]
        if not closed.all():
            a, b = divmod(int(closed.argmin()), len(mem) + 1)
            if b == 0:
                raise GroupAxiomError(f"subgroup not closed under inverse at {mem[a]}")
            raise GroupAxiomError(f"subgroup not closed under product at ({mem[a]}, {mem[b - 1]})")
        self.parent = parent
        self.members = tuple(mem)

    @classmethod
    def trivial(cls, parent: FiniteGroup) -> "Subgroup":
        return cls(parent, (parent.identity,))

    @classmethod
    def whole(cls, parent: FiniteGroup) -> "Subgroup":
        return cls(parent, range(parent.order))

    def __repr__(self):
        return f"Subgroup({self.parent.name!r}, {self.members})"


def _perm_compose(p: tuple, q: tuple) -> tuple:
    """(p then-after q) as functions: result[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def _table_from_perms(perms: list[tuple], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[_perm_compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(mul, index[tuple(range(len(perms[0])))], name=name)


def _symmetric3() -> FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    return _table_from_perms(perms, "s3")


def _dihedral8() -> FiniteGroup:
    rotations = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    reflection = (0, 3, 2, 1)
    perms = sorted(rotations + [_perm_compose(r, reflection) for r in rotations])
    return _table_from_perms(perms, "d8")


def _quaternion8() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k: element 2*axis + (sign < 0) with
    # axes 0=1, 1=i, 2=j, 3=k.  Axis a times axis b is axis a XOR b, negated
    # where ``flip`` is set (i*i = -1, j*i = -k, ...)
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    a, b = np.arange(8)[:, None], np.arange(8)
    mul = 2 * ((a >> 1) ^ (b >> 1)) + (((a ^ b) & 1) ^ flip[a >> 1, b >> 1])
    return FiniteGroup(mul, 0, name="q8")


def _cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, built by arithmetic.

    Addition mod n is a group law by construction, so the table skips the
    axiom check the way closed automorphisms skip verification.  Its n^2
    cells count against the point budget."""
    n = _integer(n, "cyclic order", 1)
    check_size(lambda: f"builtin group c{_clip(n)}", n, "table cells", DEFAULT_MAX_POINTS, 2)
    ar = np.arange(n, dtype=np.int32)
    g = FiniteGroup.__new__(FiniteGroup)
    g._fill((ar[:, None] + ar) % np.int32(n), -ar % np.int32(n), 0, f"c{n}")
    return g


_FIXED_GROUPS = {"s3": _symmetric3, "d8": _dihedral8, "q8": _quaternion8}


@functools.cache
def _fixed_group(key: str) -> FiniteGroup:
    return _FIXED_GROUPS[key]()


def builtin_group(name: str) -> FiniteGroup:
    """Named groups: ``c<n>`` cyclic of order n, ``s3`` symmetric on three
    points, ``d8`` dihedral of order 8, ``q8`` quaternion.

    s3, d8 and q8 are built and verified once per process, and every call
    returns that one instance, so caches keyed by the group (the orbit
    structure of ``compress_to_invariants``) hold across calls.  ``c<n>``,
    with n in ASCII digits, is a new group per call."""
    key = name.strip().lower()
    digits = key[1:]
    if key[:1] == "c" and digits.isascii() and digits.isdigit():
        try:
            order = int(digits)
        except ValueError:
            raise ValueError(f"cyclic order in {_clip(name)} has {_too_many_digits(digits)}") from None
        return _cyclic(order)
    if key in _FIXED_GROUPS:
        return _fixed_group(key)
    raise ValueError(f"unknown builtin group {_clip(name)}")


def group_from_dict(data) -> FiniteGroup:
    """Build a verified group from {"order": n, "mul": [[...]], "unit": u,
    "name": s}.  A name that is no string is ignored; ``FiniteGroup``
    checks a string name."""
    if not isinstance(data, dict):
        raise ValueError("group JSON must be an object")
    if "mul" not in data:
        raise ValueError("group JSON missing 'mul'")
    mul = data["mul"]
    if not isinstance(mul, list) or not all(isinstance(r, list) for r in mul):
        raise ValueError("'mul' must be a list of rows")
    if "order" in data and _integer(data["order"], "'order'") != len(mul):
        raise GroupAxiomError("'order' does not match the table size")
    name = data.get("name")
    return FiniteGroup(mul, data.get("unit", 0), name=name if isinstance(name, str) else None)
