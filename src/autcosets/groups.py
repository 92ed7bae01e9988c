"""Finite groups given by multiplication tables, their subgroups, and
mixed-radix indexing of the points of K^d."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import DEFAULT_MAX_POINTS, SizeLimitError
from .words import _integer


class GroupAxiomError(ValueError):
    """A claimed multiplication table violates the group axioms."""


def _check_table_cells(label: str, n: int) -> None:
    """Refuse an n x n multiplication table over the point budget."""
    if n * n > DEFAULT_MAX_POINTS:
        raise SizeLimitError(
            f"{label} needs a {n}x{n} multiplication table, "
            f"over the budget of {DEFAULT_MAX_POINTS} cells"
        )


def _check_associative(arr: np.ndarray, identity: int) -> None:
    """Light's associativity test (Clifford & Preston 1961, section 1.2) on a
    table with a two-sided identity and two-sided inverses.

    The elements a with (xa)y = x(ay) for all x, y are closed under products,
    so it suffices to test generators.  Each generator is the smallest element
    not yet reached, and what is reached is closed under right multiplication
    by the generators.  In a group that is a subgroup, which each new
    generator at least doubles: needing more than log2(n) generators proves
    the table is not associative.  O(n^2 log n) in all."""
    n = len(arr)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        a = int(np.argmin(reached))
        # arr[arr[:, a]][x, y] = (xa)y,  arr[:, arr[a]][x, y] = x(ay)
        if len(gens) == (n.bit_length() - 1) or not np.array_equal(arr[arr[:, a]], arr[:, arr[a]]):
            raise GroupAxiomError("multiplication table is not associative")
        gens.append(a)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[arr[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True


class FiniteGroup:
    """Group on elements 0..order-1 defined by a full multiplication table.

    ``mul[a][b]`` is the product a*b.  The table is checked on construction:
    its n^2 cells against the point budget, then a two-sided identity, a
    unique two-sided inverse per element, and associativity by Light's test.
    Table entries and the unit must be integers (``bool``, floats and strings
    are refused).  ``mul_np``/``inv_np`` expose the same data as read-only
    numpy arrays for bulk evaluation.
    """

    __slots__ = ("name", "order", "mul", "inv", "identity", "mul_np", "inv_np", "_hash", "__weakref__")

    def __init__(self, mul: Sequence[Sequence[int]], identity: int = 0, name: str | None = None):
        mul = tuple(mul)
        n = len(mul)
        _check_table_cells(f"group of order {n}", n)
        table = tuple(
            tuple(x if type(x) is int else _integer(x, "'mul' entry") for x in row) for row in mul
        )
        identity = _integer(identity, "'unit'")
        if n == 0:
            raise GroupAxiomError("empty multiplication table")
        for row in table:
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise GroupAxiomError("multiplication table must be square over 0..n-1")
        if not 0 <= identity < n:
            raise GroupAxiomError(f"unit {identity} out of range")
        arr = np.array(table, dtype=np.int32)
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
        self._fill(table, arr, tuple(inv.tolist()), identity, name)

    def _fill(self, table: tuple, arr: np.ndarray, inv: tuple, identity: int, name) -> None:
        """Set the attributes from a table known to satisfy the axioms."""
        self.mul = table
        self.inv = inv
        self.identity = int(identity)
        self.order = len(table)
        self.name = name or f"group{self.order}"
        arr.setflags(write=False)
        inv_np = np.array(inv, dtype=np.int32)
        inv_np.setflags(write=False)
        self.mul_np = arr
        self.inv_np = inv_np
        # hashed once: groups key the orbit cache, and the table is n^2 cells
        self._hash = hash((table, self.identity))

    def conjugate(self, u: int, k: int) -> int:
        """u * k * u^-1."""
        return self.mul[self.mul[u][k]][self.inv[u]]

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.mul == other.mul and self.identity == other.identity

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup:
    """Subset of a FiniteGroup's elements verified closed under product and
    inverse and containing the unit."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        mem = sorted({int(x) for x in members})
        if any(x < 0 or x >= parent.order for x in mem):
            raise GroupAxiomError("subgroup members out of range")
        if parent.identity not in mem:
            raise GroupAxiomError("subgroup must contain the unit")
        member_set = set(mem)
        for a in mem:
            if parent.inv[a] not in member_set:
                raise GroupAxiomError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if parent.mul[a][b] not in member_set:
                    raise GroupAxiomError(f"subgroup not closed under product at ({a}, {b})")
        self.parent = parent
        self.members = tuple(mem)

    @classmethod
    def trivial(cls, parent: FiniteGroup) -> "Subgroup":
        return cls(parent, (parent.identity,))

    @classmethod
    def whole(cls, parent: FiniteGroup) -> "Subgroup":
        return cls(parent, range(parent.order))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

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
    rot = (1, 2, 3, 0)
    ref = (0, 3, 2, 1)
    elems = {(0, 1, 2, 3)}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for gen in (rot, ref):
            q = _perm_compose(gen, p)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    perms = sorted(elems)
    if len(perms) != 8:
        raise GroupAxiomError("dihedral construction produced a wrong closure")
    return _table_from_perms(perms, "d8")


def _quaternion8() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k encoded as 2*axis + (sign < 0)
    # with axes 0=1, 1=i, 2=j, 3=k
    cyc = {
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }

    def mul_pair(a: int, b: int) -> int:
        ax, sa = a // 2, -1 if a % 2 else 1
        bx, sb = b // 2, -1 if b % 2 else 1
        sign = sa * sb
        if ax == 0:
            res = bx
        elif bx == 0:
            res = ax
        elif ax == bx:
            res, sign = 0, -sign
        else:
            res, extra = cyc[(ax, bx)]
            sign *= extra
        return 2 * res + (1 if sign < 0 else 0)

    mul = [[mul_pair(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(mul, 0, name="q8")


def _cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, built by arithmetic.

    Addition mod n is a group law by construction, so the table skips the
    axiom check the way closed automorphisms skip verification.  Its n^2
    cells count against the point budget."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_table_cells(f"builtin group c{n}", n)
    elems = tuple(range(n))
    # rows share the element objects of ``elems``: row a is a + b mod n
    table = tuple(elems[a:] + elems[:a] for a in range(n))
    ar = np.arange(n, dtype=np.int32)
    arr = (ar[:, None] + ar) % np.int32(n)
    g = FiniteGroup.__new__(FiniteGroup)
    inv = elems[:1] + elems[:0:-1]  # -a mod n: 0, n-1, ..., 1
    g._fill(table, arr, inv, 0, f"c{n}")
    return g


def builtin_group(name: str) -> FiniteGroup:
    """Named groups: ``c<n>`` cyclic of order n, ``s3`` symmetric on three
    points, ``d8`` dihedral of order 8, ``q8`` quaternion."""
    key = name.strip().lower()
    if len(key) > 1 and key[0] == "c" and key[1:].isdigit():
        return _cyclic(int(key[1:]))
    if key == "s3":
        return _symmetric3()
    if key == "d8":
        return _dihedral8()
    if key == "q8":
        return _quaternion8()
    raise ValueError(f"unknown builtin group {name!r}")


def group_from_dict(data) -> FiniteGroup:
    """Build a verified group from {"order": n, "mul": [[...]], "unit": u}."""
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


def group_to_dict(k: FiniteGroup) -> dict:
    return {"order": k.order, "mul": [list(row) for row in k.mul], "unit": k.identity}


class TupleIndex:
    """Bijection between d-tuples over 0..n-1 and the integers 0..n^d - 1.

    Coordinate 1 is the least significant digit:
    index = point[0] + point[1]*n + ... + point[d-1]*n^(d-1).
    """

    __slots__ = ("n", "d", "n_points")

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError(f"base must be >= 1, got {n}")
        if d < 0:
            raise ValueError(f"tuple length must be >= 0, got {d}")
        self.n = n
        self.d = d
        self.n_points = n ** d

    def encode(self, point: Sequence[int]) -> int:
        if len(point) != self.d:
            raise ValueError(f"expected a {self.d}-tuple, got length {len(point)}")
        index = 0
        for c in range(self.d - 1, -1, -1):
            x = point[c]
            if not 0 <= x < self.n:
                raise ValueError(f"coordinate {x} out of range 0..{self.n - 1}")
            index = index * self.n + x
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_points:
            raise ValueError(f"index {index} out of range 0..{self.n_points - 1}")
        out = []
        for _ in range(self.d):
            index, digit = divmod(index, self.n)
            out.append(digit)
        return tuple(out)

    def digit(self, index: int, coord: int) -> int:
        """Coordinate ``coord`` (1-based) of the point with this index."""
        if not 1 <= coord <= self.d:
            raise ValueError(f"coordinate {coord} out of range 1..{self.d}")
        return (index // self.n ** (coord - 1)) % self.n
