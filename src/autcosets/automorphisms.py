"""Finitely supported endomorphisms and verified automorphisms of the free
group on generators x1, x2, x3, ...

An endomorphism stores images only for the generators it actually moves; all
other generators are fixed.  An automorphism is an endomorphism bundled with
a certified inverse, so invertibility never has to be decided after the fact.

Inverse pairs are verified where data comes in: the public
``Automorphism(fwd, inv)`` constructor and ``automorphism_from_dict`` (hence
every JSON load), which validate keys and reduce every image first.

Each class has one unchecked constructor, used by every map the library
builds itself.  ``_endomorphism(codes)`` takes a code map of reduced images
under valid generator keys and drops its x_i -> x_i entries; the public
``Endomorphism(images)`` checks and encodes its letters, then sets its slots
the same way.  ``_closed_automorphism(fwd, inv)`` pairs two Endomorphisms,
or a forward map with a composite's pending factor pair, and skips
verification.  Closed operations -- composition, inversion, Nielsen moves,
permutations and random products of moves -- build their results from
pairs that are already verified, so they preserve the invariant by
construction and go through it.  Every permutation, including the
identity, the Nielsen swap and the block swaps of ``cosets``, is built by
``_permutation``, and an involution keeps one Endomorphism for both halves.
In ``cosets``, ``product_formula_direct`` and the witnesses build their
pairs by substitution and verify them through ``Automorphism(fwd, inv)``,
as part of the cross-checks they provide.

Images are stored as code words, signed ints (``words._encode``), and
every internal rewrite -- composition, verification, the coset patterns --
runs on the one kernel ``words._substitute_codes``, except a composition
whose left factor was built by ``_permutation``: that map carries a signed
rename table and renames each image letter by letter, since a signed
permutation of the letters keeps a reduced word reduced.  A permutation
loaded through the public constructor has no table and runs the kernel, as
every verification does.  Letter words appear
only at the boundary: the public constructor, which JSON load also goes
through, reduces letters and encodes them once, and ``images``,
``image``, ``repr`` and ``automorphism_to_dict`` decode on demand;
the CLI's JSON writer, ``_automorphism_json``, reads the codes as they are.

Verification computes one composite, f . g, and stops at its first wrong
image: free groups of finite rank are Hopfian, so f . g = id forces
g . f = id (the proof is in ``verify_inverse_pair``).

A composite built by ``compose`` defers its inverse: it keeps its two
factors and computes the inverse composite the first time ``.inv`` is read.
Equality, hashing and ``support_bound`` read the forward map only, which is
sound because the inverse of a verified or closed pair is fixed by its
forward map, and a map fixing every x_i above B and sending F_B into F_B
has an inverse that does the same.  Coset products compare and size forward
maps, so they pay only for the inverses they read.

Composition follows the usual convention for maps: ``compose(a, b)`` sends
x_i to ``a(b(x_i))``, i.e. ``b`` acts first.
"""

from __future__ import annotations

__all__ = [
    "Automorphism", "Endomorphism", "InverseVerificationError", "automorphism_from_dict",
    "automorphism_to_dict", "compose", "identity_automorphism", "invert", "is_in_H",
    "nielsen_invert", "nielsen_right_mult", "nielsen_swap", "permutation_automorphism",
    "random_automorphism", "verify_inverse_pair",
]

import random
from typing import Iterable, Mapping

from .words import (
    Code,
    Letter,
    Word,
    _decode,
    _encode,
    _clip,
    _concat_codes,
    _int_text,
    _integer,
    _substitute_codes,
    _TABLE_INDEX_BOUND,
    _TABLE_SIZE,
    _too_many_digits,
    format_word,
    reduce,
)


class InverseVerificationError(ValueError):
    """A claimed (forward, inverse) endomorphism pair failed verification."""


class Endomorphism:
    """Generator-image map.  Generators absent from ``images`` are fixed.

    Images are stored as code words (``words._encode``) for the moved
    generators only; ``images``, ``image`` and ``repr`` decode them on
    demand.  The first time the map is a left factor it caches its code
    map (``_code_map``), where the kernel keeps the inverse words it
    builds.  A map built by ``_permutation`` also carries its signed
    rename table (``_rename``), through which it composes on the left;
    it is None on every other map."""

    __slots__ = ("_codes", "_bound", "_map", "_rename")

    def __init__(self, images: Mapping[int, Iterable[Letter]] | None = None):
        codes: dict[int, Code] = {}
        if images:
            for key, img in images.items():
                key = _integer(key, "generator index", 1)
                try:
                    codes[key] = _encode(reduce(img))
                except ValueError as err:
                    raise ValueError(f"{err}, in the image of x{_clip(key)}") from None
        self._set(codes)

    def _set(self, codes: dict[int, Code]) -> None:
        """Set every slot from a fresh code map, dropping its x_i -> x_i
        entries.  The map is taken, not copied, unless it holds one."""
        for key, code in codes.items():
            if len(code) == 1 and code[0] == key:
                codes = {key: code for key, code in codes.items() if code != (key,)}
                break
        self._codes = codes
        self._bound = None
        self._map = None
        self._rename = None

    @property
    def images(self) -> dict[int, Word]:
        """Copy of the moved-generator image map."""
        return {key: _decode(code) for key, code in self._codes.items()}

    def image(self, index: int) -> Word:
        """Image word of x_index (x_index itself when fixed)."""
        index = _integer(index, "generator index", 1)
        code = self._codes.get(index)
        return ((index, 1),) if code is None else _decode(code)

    def support_bound(self) -> int:
        """Smallest B such that every generator above B is fixed and no image
        mentions a generator above B.  Cached: the map is immutable."""
        bound = self._bound
        if bound is None:
            bound = 0
            for key, code in self._codes.items():
                if key > bound:
                    bound = key
                top = max(map(abs, code), default=0)
                if top > bound:
                    bound = top
            self._bound = bound
        return bound

    def is_identity(self) -> bool:
        return not self._codes

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self._codes == other._codes

    def __hash__(self):
        return hash(frozenset(self._codes.items()))

    def __repr__(self):
        return f"Endomorphism({', '.join(_image_lines(self)) or 'identity'})"


def _image_lines(e: Endomorphism) -> list[str]:
    """The text form of a map: ``x<k> -> <word>`` for each generator ``e``
    moves, in ascending order, an empty image written ``1``.  ``repr``
    joins the lines with commas and the CLI's ``--text`` with newlines.
    An index past the interpreter's digit limit is written by ``_int_text``."""
    return [f"x{_int_text(k)} -> {format_word(_decode(w)) or '1'}" for k, w in sorted(e._codes.items())]


def _endomorphism(codes: dict[int, Code]) -> Endomorphism:
    """Endomorphism from a fresh code map of reduced images under valid
    generator keys, the one unchecked constructor: drops x_i -> x_i entries
    as the public constructor does, but neither re-checks keys nor
    re-reduces."""
    e = Endomorphism.__new__(Endomorphism)
    e._set(codes)
    return e


def _code_map(e: Endomorphism) -> dict[int, Code]:
    """The code map of ``e`` for ``_substitute_codes``: a copy of its images,
    made on first use and kept, so the inverse words the kernel stores in
    it are built once for the life of ``e``."""
    cmap = e._map
    if cmap is None:
        cmap = e._map = dict(e._codes)
    return cmap


def _image_code(e: Endomorphism, index: int) -> Code:
    """Code word of the image of x_index, a valid generator index."""
    code = e._codes.get(index)
    return (index,) if code is None else code


def compose_endomorphisms(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """Endomorphism sending x_i to a(b(x_i)).

    When ``a`` renames generators (it carries a rename table), each image
    of ``b`` is renamed letter by letter: a signed permutation of the
    letters sends a reduced word to a reduced word, so nothing cancels.
    Every other ``a`` runs the kernel."""
    b_codes = b._codes
    rename = a._rename
    if rename is not None:
        get = rename.get
        # through a list, sized once: tuple(map(...)) grows its tuple by resizing
        codes = {key: tuple([*map(get, code, code)]) for key, code in b_codes.items()}
    else:
        a_map = _code_map(a)
        codes = {key: _substitute_codes(a_map, code) for key, code in b_codes.items()}
    for key, code in a._codes.items():
        if key not in b_codes:
            codes[key] = code
    return _endomorphism(codes)


def verify_inverse_pair(f: Endomorphism, g: Endomorphism) -> bool:
    """True iff f(g(x_i)) = x_i = g(f(x_i)) for every i.

    Only f . g is checked, one generator g moves at a time, stopping at the
    first mismatch; g . f is never computed.  This decides the two-sided
    predicate because finitely generated free groups are Hopfian.  Let B be
    the larger support bound of f and g.  Both maps fix every x_i above B
    and send F_B = <x_1, ..., x_B> into F_B.  If f . g = id on F_B, then f
    maps F_B onto F_B; a surjective endomorphism of a Hopfian group is
    injective, so f is bijective on F_B and g is its inverse there, whence
    g . f = id on F_B; above B both maps are the identity.

    On a generator g does not move, f . g agrees with f, so f must not move
    it either.  Both loops run over moved generators only, so the cost does
    not grow with the largest index the maps mention.

    Raises TypeError unless both arguments are Endomorphisms."""
    if not (isinstance(f, Endomorphism) and isinstance(g, Endomorphism)):
        raise TypeError(
            "verify_inverse_pair needs two Endomorphisms, got "
            f"{type(f).__name__} and {type(g).__name__}"
        )
    f_codes = f._codes
    g_codes = g._codes
    if not f_codes.keys() <= g_codes.keys():
        return False
    f_map = _code_map(f)
    for key, code in g_codes.items():
        if _substitute_codes(f_map, code) != (key,):
            return False
    return True


class Automorphism:
    """Invertible finitely supported map, stored as a verified pair
    (forward, inverse) of endomorphisms.

    The constructor reduces both image maps and raises
    InverseVerificationError unless they compose to the identity both ways.
    A composite built by ``compose`` stores its factors in place of its
    inverse until ``inv`` is first read.
    """

    __slots__ = ("fwd", "_inv")

    def __init__(self, fwd, inv):
        fwd = fwd if isinstance(fwd, Endomorphism) else Endomorphism(fwd)
        inv = inv if isinstance(inv, Endomorphism) else Endomorphism(inv)
        if not verify_inverse_pair(fwd, inv):
            raise InverseVerificationError(
                "forward and inverse endomorphisms do not compose to the identity"
            )
        self.fwd = fwd
        self._inv = inv

    @property
    def inv(self) -> Endomorphism:
        """The inverse endomorphism, computed on first read for a composite."""
        inv = self._inv
        if type(inv) is tuple:
            inv = _force_inverse(self)
        return inv

    def image(self, index: int) -> Word:
        return self.fwd.image(index)

    def support_bound(self) -> int:
        # the inverse of a true pair has the same bound (module docstring)
        return self.fwd.support_bound()

    def inverse(self) -> "Automorphism":
        return _closed_automorphism(self.inv, self.fwd)

    def is_identity(self) -> bool:
        return self.fwd.is_identity()

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        # the inverse of a verified or closed pair is fixed by its forward map
        return self.fwd == other.fwd

    def __hash__(self):
        return hash(self.fwd)

    def __repr__(self):
        return f"Automorphism({self.fwd!r}, {self.inv!r})"


def _closed_automorphism(fwd: Endomorphism, inv) -> Automorphism:
    """Automorphism from a pair that is mutually inverse by construction,
    the one unchecked constructor.

    For results of closed operations only: ``fwd`` is an Endomorphism and
    ``inv`` its inverse Endomorphism, or, for a composite, the pending
    factor pair that ``_force_inverse`` turns into it.  Skips reduction and
    inverse-pair verification; input from outside goes through
    ``Automorphism(fwd, inv)`` instead.
    """
    a = Automorphism.__new__(Automorphism)
    a.fwd = fwd
    a._inv = inv
    return a


def _force_inverse(root: Automorphism) -> Endomorphism:
    """Compute the deferred inverse of ``root``.

    ``compose(a, b)`` defers its inverse as the factor pair ``(b, a)``,
    standing for ``b.inv . a.inv``.  Pending composites are forced from an
    explicit stack, factors before the composites that read them, so a deep
    fold cannot exhaust the recursion limit, and a factor shared by several
    composites is forced once.  Each forced pair is replaced by its
    Endomorphism, which drops the references to the factors.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        pending = node._inv
        if type(pending) is not tuple:
            stack.pop()  # a shared factor, forced since it was pushed
            continue
        first, second = pending
        first_inv, second_inv = first._inv, second._inv
        if type(first_inv) is tuple or type(second_inv) is tuple:
            if type(first_inv) is tuple:
                stack.append(first)
            if type(second_inv) is tuple:
                stack.append(second)
            continue
        node._inv = compose_endomorphisms(first_inv, second_inv)
        stack.pop()
    return root._inv


def compose(a, b):
    """Composite sending x_i to a(b(x_i)) — ``b`` acts first.

    Accepts two Endomorphisms or two Automorphisms.  The automorphism case
    composes the forward maps now and defers the inverse, ``b.inv . a.inv``,
    until it is first read.
    """
    if isinstance(a, Automorphism) and isinstance(b, Automorphism):
        return _closed_automorphism(compose_endomorphisms(a.fwd, b.fwd), (b, a))
    if isinstance(a, Endomorphism) and isinstance(b, Endomorphism):
        return compose_endomorphisms(a, b)
    raise TypeError("compose expects two Endomorphisms or two Automorphisms")


def _require_automorphism(a, layer: str) -> None:
    """Refuse an ``a`` that is not a verified ``Automorphism`` (TypeError
    naming ``layer`` and the type): any object with ``image`` and
    ``support_bound`` would otherwise be evaluated, and any other object
    would fail on its first attribute."""
    if not isinstance(a, Automorphism):
        raise TypeError(f"{layer} needs an Automorphism, got {type(a).__name__}")


def invert(a: Automorphism) -> Automorphism:
    """Inverse automorphism (just swaps the verified pair)."""
    _require_automorphism(a, "invert")
    return a.inverse()


def identity_automorphism() -> Automorphism:
    return _permutation({})


def nielsen_swap(i: int, j: int) -> Automorphism:
    """Transposition x_i <-> x_j (i != j)."""
    i, j = _integer(i, "generator index", 1), _integer(j, "generator index", 1)
    if i == j:
        raise ValueError("swap needs two distinct indices")
    return _permutation({i: j, j: i})


def nielsen_invert(i: int) -> Automorphism:
    """x_i -> x_i^-1, all other generators fixed.  Self-inverse."""
    i = _integer(i, "generator index", 1)
    e = _endomorphism({i: (-i,)})
    return _closed_automorphism(e, e)


def nielsen_right_mult(i: int, j: int) -> Automorphism:
    """x_i -> x_i x_j with i != j, all other generators fixed."""
    i, j = _integer(i, "generator index", 1), _integer(j, "generator index", 1)
    if i == j:
        raise ValueError("right multiplication needs two distinct indices")
    return _closed_automorphism(_endomorphism({i: (i, j)}), _endomorphism({i: (i, -j)}))


def permutation_automorphism(mapping: Mapping[int, int]) -> Automorphism:
    """Automorphism permuting generators according to ``mapping``.

    The mapping may list fixed points; after dropping them it must be a
    bijection of its moved set.
    """
    moved: dict[int, int] = {}
    for key, val in mapping.items():
        key, val = _integer(key, "generator index", 1), _integer(val, "generator index", 1)
        if key != val:
            if key in moved:
                raise ValueError(f"duplicate image for generator {_clip(key)}")
            moved[key] = val
    values = set(moved.values())
    # the keys of ``moved`` are distinct, so equal sets have equal sizes
    if values != set(moved):
        raise ValueError("mapping is not a permutation of its moved generators")
    return _permutation(moved)


def _permutation(mapping: Mapping[int, int]) -> Automorphism:
    """Automorphism renaming x_k to x_mapping[k], the one permutation
    builder, unchecked: ``mapping`` maps valid generator indices to valid
    generator indices and permutes its keys; fixed points are dropped.  An
    involution keeps one Endomorphism for both halves.

    Each half carries its signed rename table, {k: v, -k: -v} over the
    moved generators, for ``compose_endomorphisms``."""
    codes = {k: (v,) for k, v in mapping.items()}
    inverse = {v: (k,) for k, v in mapping.items()}
    fwd = _endomorphism(codes)
    fwd._rename = _rename_table(fwd)
    if inverse == codes:
        return _closed_automorphism(fwd, fwd)
    inv = _endomorphism(inverse)
    inv._rename = _rename_table(inv)
    return _closed_automorphism(fwd, inv)


def _rename_table(e: Endomorphism) -> dict[int, int]:
    """Signed rename table of a permutation ``e``: k -> v and -k -> -v for
    each x_k -> x_v it moves."""
    table: dict[int, int] = {}
    for k, (v,) in e._codes.items():
        table[k] = v
        table[-k] = -v
    return table


def is_in_H(a: Automorphism, m: int) -> bool:
    """Whether ``a`` fixes each of x_1 .. x_m (membership in the pointwise
    stabilizer of the first m generators).  Raises TypeError unless ``a``
    is an Automorphism."""
    _require_automorphism(a, "is_in_H")
    m = _integer(m, "m", 0)
    # the moved generators, not 1..m: m may be far larger than the support
    moved = a.fwd._codes
    return not moved or min(moved) > m


# move kinds as random_automorphism draws them below 3; kind 2 is x_i -> x_i x_j
_SWAP, _INVERT = 0, 1


def random_automorphism(m_fix: int, max_index: int, length: int, seed: int) -> Automorphism:
    """Composition mu_L . ... . mu_1 of ``length`` random Nielsen moves
    touching only the generators m_fix+1 .. max_index, mu_1 drawn first.
    Deterministic in the integer ``seed``.

    Each move is drawn from ``random.Random(seed).getrandbits`` with the
    rejection rule of ``Random._randbelow``: a value below n takes
    k = n.bit_length() bits, drawn again while it is n or more.  Over the n
    free indices a move draws its kind (swap, inversion or x_i -> x_i x_j)
    below 3, unless n = 1, where every move is an inversion, then i below n.
    The second index j of a swap or a multiplication follows the k = 2 rule
    of ``Random.sample``: for n <= 21 it is drawn below n - 1 and becomes
    n - 1 where it meets i; for n > 21 it is drawn below n again until it
    differs from i.  These are the draws ``choice`` and ``sample`` make, but
    the stream is pinned by SHA-256 digests of the results in the tests, not
    by calls to them.

    All moves are drawn first.  The forward map is then folded by right
    multiplication, F <- F . mu, from mu_L down, and the inverse,
    mu_1^-1 . ... . mu_L^-1, by G <- G . mu^-1 from mu_1 up.  Each fold
    keeps every image paired with its inverse word.  Right multiplication
    by a move rewrites at most two pairs of the map built so far: a swap
    exchanges the pairs of x_i and x_j, an inversion swaps the two words of
    x_i's pair, and x_i -> x_i x_j sets F(x_i) to F(x_i) F(x_j) and its
    inverse to F(x_j)^-1 F(x_i)^-1, two ``_concat_codes`` calls
    (G(x_j)^-1 in place of G(x_j) on the inverse side).  So a step costs
    the letters of two joins, never a substitution through the whole map
    nor a word inverted letter by letter.  The fold runs on code words, so
    the images need no encoding.  Composition is associative and reduced
    words are unique, so the images are those of composing each move onto
    the left as it is drawn; both halves are built in full, so the result
    carries no chain of deferred inverses."""
    m_fix, max_index = _integer(m_fix, "m_fix", 0), _integer(max_index, "max_index")
    length, seed = _integer(length, "length", 0), _integer(seed, "seed")
    lo = m_fix + 1
    if max_index < lo:
        raise ValueError("max_index leaves no generators free to move")
    getrandbits = random.Random(seed).getrandbits
    n = max_index - m_fix
    bits = n.bit_length()
    bits_less = (n - 1).bit_length()
    moves: list[tuple[int, int, int]] = []
    for _ in range(length):
        if n == 1:
            kind = _INVERT
        else:
            kind = getrandbits(2)
            while kind >= 3:
                kind = getrandbits(2)
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        if kind == _INVERT:
            j = i
        elif n <= 21:
            j = getrandbits(bits_less)
            while j >= n - 1:
                j = getrandbits(bits_less)
            if j == i:
                j = n - 1
        else:
            j = getrandbits(bits)
            while j >= n or j == i:
                j = getrandbits(bits)
        moves.append((kind, lo + i, lo + j))
    # one shared (x_k, x_k^-1) pair of code words per generator the moves name
    names = {i for _, i, _ in moves}
    names.update([j for _, _, j in moves])
    generator = {k: ((k,), (-k,)) for k in names}
    fwd = _right_fold(reversed(moves), generator, inverse=False)
    inv = _right_fold(moves, generator, inverse=True)
    return _closed_automorphism(_endomorphism(fwd), _endomorphism(inv))


def _right_fold(moves, generator: dict[int, tuple[Code, Code]], inverse: bool) -> dict[int, Code]:
    """Code images of mu_1 . mu_2 . ... . mu_n for the Nielsen moves
    (kind, i, j) taken in order, each replaced by its inverse when
    ``inverse``.  Built from the identity by right multiplication, on
    (image, inverse word) pairs of code words; ``generator`` holds the pair
    of every index the moves name."""
    pairs: dict[int, tuple[Code, Code]] = {}
    get = pairs.get
    for kind, i, j in moves:
        wi = get(i) or generator[i]
        if kind == _INVERT:
            pairs[i] = (wi[1], wi[0])
            continue
        wj = get(j) or generator[j]
        if kind == _SWAP:
            pairs[i], pairs[j] = wj, wi
        elif inverse:
            pairs[i] = (_concat_codes(wi[0], wj[1]), _concat_codes(wj[0], wi[1]))
        else:
            pairs[i] = (_concat_codes(wi[0], wj[0]), _concat_codes(wj[1], wi[1]))
    return {k: pair[0] for k, pair in pairs.items()}


def _endo_to_dict(e: Endomorphism) -> dict:
    return {
        str(k): [[c, 1] if c > 0 else [-c, -1] for c in code]
        for k, code in sorted(e._codes.items())
    }


def _require_writable(a) -> None:
    """Refuse an ``a`` with no JSON form, for ``automorphism_to_dict`` and
    ``_automorphism_json`` alike: TypeError unless it is an Automorphism,
    and ValueError, naming its digit count, when its highest index has more
    digits than the interpreter converts to text.  The forward map's
    support bound is the highest index of both halves (see the module
    docstring)."""
    _require_automorphism(a, "automorphism_to_dict")
    top = a.support_bound()
    try:
        str(top)
    except ValueError:
        raise ValueError(f"generator index {_clip(top)} has more digits than the limit") from None


def automorphism_to_dict(a: Automorphism) -> dict:
    """JSON-ready form: {"images": {...}, "inverse_images": {...}} with
    letter lists [index, sign] and string generator keys, both ascending.
    Raises TypeError unless ``a`` is an Automorphism, and ValueError,
    naming its digit count, for an index with more digits than the
    interpreter converts to text.  The CLI writes the same document's
    compact JSON text straight from the code words (``_automorphism_json``);
    this is the form the tests hold that text to."""
    _require_writable(a)
    return {"images": _endo_to_dict(a.fwd), "inverse_images": _endo_to_dict(a.inv)}


class _CodeJson(dict):
    """The JSON text ``[index,sign]`` of a code, made on first lookup.  It
    keeps at most ``words._TABLE_SIZE`` codes, each of at most
    ``words._TABLE_DIGITS`` digits, as the word text tables do."""

    __slots__ = ()

    def __missing__(self, c: int) -> str:
        text = f"[{c},1]" if c > 0 else f"[{-c},-1]"
        if -_TABLE_INDEX_BOUND < c < _TABLE_INDEX_BOUND and len(self) < _TABLE_SIZE:
            self[c] = text
        return text


_CODE_JSON = _CodeJson()


def _endo_json(e: Endomorphism) -> str:
    texts = _CODE_JSON.__getitem__
    return "{" + ",".join([
        f'"{k}":[{",".join(map(texts, code))}]' for k, code in sorted(e._codes.items())
    ]) + "}"


def _automorphism_json(a: Automorphism) -> str:
    """``json.dumps(automorphism_to_dict(a), separators=(",", ":"))``,
    byte for byte, written straight from the code words: no letter lists
    are built, and each code's ``[index,sign]`` text comes from a bounded
    table.  Refuses what ``automorphism_to_dict`` refuses, with the same
    messages."""
    _require_writable(a)
    return f'{{"images":{_endo_json(a.fwd)},"inverse_images":{_endo_json(a.inv)}}}'


def _endo_from_dict(data, field: str) -> Endomorphism:
    # Keys must be real ints or digit strings; two keys naming one generator
    # ("1" and "01") are refused, not merged.  Only the shape of each letter
    # is checked here: the public constructor reduces every image, and
    # ``reduce`` applies the one integer rule to its parts, so JSON true/false
    # and floats such as 1.7 are refused, not truncated; its message names
    # the image, and the field is added here.
    if not isinstance(data, dict):
        raise ValueError(f"{field} must be an object mapping indices to letter lists")
    images: dict[int, list] = {}
    for key, letters in data.items():
        if not (type(key) is int or (isinstance(key, str) and key.isascii() and key.isdigit())):
            raise ValueError(f"bad generator key {_clip(key)} in {field}")
        try:
            index = int(key)
        except ValueError:
            raise ValueError(
                f"generator key {_clip(key)} in {field} has {_too_many_digits(key)}"
            ) from None
        if index in images:
            raise ValueError(
                f"generator key {_clip(key)} in {field} names x{_clip(index)} a second time"
            )
        if not isinstance(letters, (list, tuple)):
            raise ValueError(f"image of x{_clip(index)} in {field} must be a list of letters")
        for item in letters:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"bad letter {_clip(item)} in image of x{_clip(index)}")
        images[_integer(index, "generator index", 1)] = letters
    try:
        return Endomorphism(images)
    except ValueError as err:
        raise ValueError(f"{err} in {field}") from None


def automorphism_from_dict(data) -> Automorphism:
    """Inverse of automorphism_to_dict; verifies the pair on load."""
    if not isinstance(data, dict):
        raise ValueError("automorphism JSON must be an object")
    missing = {"images", "inverse_images"} - set(data)
    if missing:
        raise ValueError(f"automorphism JSON missing {sorted(missing)}")
    fwd = _endo_from_dict(data["images"], "images")
    inv = _endo_from_dict(data["inverse_images"], "inverse_images")
    return Automorphism(fwd, inv)
