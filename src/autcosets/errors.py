"""Exception types and the size budget shared across modules."""

# points, or matrix / table cells, one request may build
DEFAULT_MAX_POINTS = 10_000_000


class SupportViolation(ValueError):
    """An automorphism moves generators outside the block an operation allows."""


class SizeLimitError(ValueError):
    """A request would build more than its budget allows: points or cells
    over the point budget, or a block size over its limit."""
