"""Exception types, the size limits and the one rule that applies them.

Every size a request asks for is compared with its limit by ``check_size``,
and every refusal reads ``<layer> needs <size> <unit>, over the limit of
<limit>``.  The layer is passed as a zero-argument callable and rendered
only when a size is refused, so a check that passes formats nothing.  Only
the point budget can be set per call, and only by the two calls
``rep-matrix --max-points`` reaches: ``markov_matrix`` and
``compress_to_invariants`` take ``max_points``; every other size is held to
its limit here."""

__all__ = ["DEFAULT_MAX_POINTS", "SizeLimitError", "SupportViolation"]

from collections.abc import Callable

from .words import _clip

# points, or matrix / table cells, one request may build
DEFAULT_MAX_POINTS = 10_000_000
# multiply-adds (rows x inner x cols) one exact matrix product may run: a
# 1000 x 1000 square product, over 20,000 times the largest product the tests
# and benchmark workloads run (36 x 36 x 36 = 46,656)
MAX_MATMUL_WORK = 10**9
# coordinates one request may lay out: bounds groups of order 1, whose n^N
# points never exceed the point budget
MAX_COORDINATES = 10_000
# coordinates one request may lay out over a group of order 2 or more, whose
# grids put coordinate i on axis -i: numpy 1.x allows 32 axes (numpy 2, 64),
# met only under a point budget raised to 2^33 or more
MAX_AXES = 32
# 8-byte entries one numpy array can hold: its size in bytes must fit in a
# signed 64-bit intp, and numpy refuses 2^60 int64 entries as "array is too
# big".  Points and cells are charged against it after the point budget and
# the axis limit, so only a raised budget meets it; below it every point code
# (< n^N) and every row offset (< n^(2m)) fits in int64
MAX_ARRAY_ENTRIES = (2**63 - 1) // 8
# generators per block: theta(m, N) has 2N images and every product
# representative moves all of them, so a product's size grows with N, not
# with the size of its input
MAX_BLOCK_SIZE = 10_000


class SupportViolation(ValueError):
    """An automorphism moves generators outside the block an operation allows."""


class SizeLimitError(ValueError):
    """A request would build more than a limit allows: points or cells over
    the point budget or the array limit, multiply-adds over the matrix
    product's work limit, or coordinates or generators per block over
    theirs.  The message names the layer, the size asked for and the
    limit."""


def check_size(layer: Callable[[], str], size: int, unit: str, limit: int, exp: int = 1) -> None:
    """Refuse ``size**exp`` ``unit`` over ``limit`` with a SizeLimitError
    naming ``layer()``: the one place a size is compared with its limit.
    ``layer`` is called only on refusal, so a size within its limit costs
    no formatting.

    A power far over the limit is neither built nor printed: the message
    then writes it as size^exp.  Every int is printed by ``words._clip``,
    so one over 24 digits is cut to its first 24."""
    # size^exp >= 2^(exp * (bit_length(size) - 1)), which then exceeds limit^2
    if exp > 1 and exp * (size.bit_length() - 1) > 2 * limit.bit_length():
        shown = f"{_clip(size)}^{_clip(exp)}"
    else:
        shown = size**exp
        if shown <= limit:
            return
        shown = _clip(shown)
    raise SizeLimitError(f"{layer()} needs {shown} {unit}, over the limit of {_clip(limit)}")
