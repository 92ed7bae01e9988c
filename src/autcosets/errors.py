"""Exception types and the size budget shared across modules."""

# points, or matrix / table cells, one request may build
DEFAULT_MAX_POINTS = 10_000_000
# coordinates one request may lay out: bounds groups of order 1, whose n^N
# points never exceed the point budget
MAX_COORDINATES = 10_000


class SupportViolation(ValueError):
    """An automorphism moves generators outside the block an operation allows."""


class SizeLimitError(ValueError):
    """A request would build more than its budget allows: points or cells
    over the point budget, or a block size or coordinate count over its
    limit."""
