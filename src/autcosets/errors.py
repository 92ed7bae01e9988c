"""Exception types and the size budget shared across modules."""

# points, or matrix / table cells, one request may build
DEFAULT_MAX_POINTS = 10_000_000
# multiply-adds (rows x inner x cols) one exact matrix product may run: a
# 1000 x 1000 square product, over 20,000 times the largest product the tests
# and benchmark workloads run (36 x 36 x 36 = 46,656)
MAX_MATMUL_WORK = 10**9
# coordinates one request may lay out: bounds groups of order 1, whose n^N
# points never exceed the point budget
MAX_COORDINATES = 10_000


class SupportViolation(ValueError):
    """An automorphism moves generators outside the block an operation allows."""


class SizeLimitError(ValueError):
    """A request would build more than its budget allows: points or cells
    over the point budget, a matrix product over its work limit, or a block
    size or coordinate count over its limit."""
