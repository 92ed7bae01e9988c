from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture()
def int_digit_limit():
    """The interpreter's default limit on converting digit strings to int
    (4300 digits), in force for one test; skipped on an interpreter that
    has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no limit on int string conversion in this interpreter")
    old = sys.get_int_max_str_digits()
    limit = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(old)


# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
