"""Shared fixtures: session-wide counts and tables, and the acceptance summary.

The counts g(n) come from the one-variable route of `series`; the
two-parameter table is the reference the tests hold them to.  The
acceptance suite runs at one of two scales:

* reduced gate (default): indices up to 100, table weight bound 200, a
  second or two cold;
* full gate: indices up to 200, table weight bound 400, enabled by
  MORSECENSUS_ACCEPT_FULL=1.  The weight-400 table is filled in memory on
  every such run, about 32 s on one core of a 2-CPU Xeon.
"""
from __future__ import annotations

import os

import pytest

from morsecensus import recurrence, series

FULL_MAX_INDEX = 200
REDUCED_MAX_INDEX = 100


def acceptance_scale() -> int:
    if os.environ.get("MORSECENSUS_ACCEPT_FULL") == "1":
        return FULL_MAX_INDEX
    return REDUCED_MAX_INDEX


@pytest.fixture(autouse=True)
def no_leaked_child():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("test left a child process behind" + (f" (pid {pid}, unreaped)" if pid else ""))


@pytest.fixture(scope="session")
def acceptance_max_n() -> int:
    return acceptance_scale()


@pytest.fixture(scope="session")
def census_counts(acceptance_max_n):
    """g(0..acceptance_max_n), shared by analysis and acceptance tests."""
    return series.morse_counts(acceptance_max_n)


@pytest.fixture(scope="session")
def census_table(acceptance_max_n):
    """The one expensive table, the reference for the counts."""
    return recurrence.extend_table(None, 2 * acceptance_max_n)


def _planted_shapes(n: int) -> list[str]:
    """The parenthesis strings of the Catalan(n) planted trivalent planar
    trees with 2n+2 vertices, in the format of `trees.EncodedPair.stem`."""
    if n == 0:
        return ["()"]
    return [f"({left}{right})" for k in range(n)
            for left in _planted_shapes(k) for right in _planted_shapes(n - 1 - k)]


@pytest.fixture(scope="session")
def planted_shapes():
    """The shape generator, shared by the trees and acceptance tests."""
    return _planted_shapes


@pytest.fixture(scope="session")
def small_counts():
    return series.morse_counts(15)


@pytest.fixture(scope="session")
def small_table():
    return recurrence.extend_table(None, 30)


@pytest.fixture
def middle_term_dropped(monkeypatch):
    """series._odd_square without its middle term (k odd), a known mutant:
    a_1, X_2 and so g(1) come out 0."""
    true_square = series._odd_square

    def without_middle_term(odd, s):
        k = len(s)
        return true_square(odd, s) - (odd[k // 2] * s[k // 2] ** 2 if k % 2 else 0)

    monkeypatch.setattr(series, "_odd_square", without_middle_term)


# --- one pass/fail line per acceptance criterion ---------------------------

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        if report.when == "call" or report.outcome == "failed":
            name = report.nodeid.split("::")[-1]
            _acceptance_outcomes.setdefault(name, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    scale = acceptance_scale()
    gate = "full" if scale == FULL_MAX_INDEX else "reduced"
    terminalreporter.section(f"acceptance criteria ({gate} gate, indices <= {scale})")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {name}")
        if name.startswith("test_criterion_09"):
            terminalreporter.write_line(
                "     note: the growth ratio's limit is exactly 2; finite-size "
                "values approach it from below"
            )
