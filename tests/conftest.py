"""Shared fixtures: session-wide counts and tables, and the acceptance summary.

The counts g(n) come from the one-variable route of `inversion`; the
two-parameter table is the reference the tests hold them to.  The
acceptance suite runs at one of two scales:

* reduced gate (default): indices up to 100, table weight bound 200, a
  second or two cold;
* full gate: indices up to 200, table weight bound 400, enabled by
  MORSECENSUS_ACCEPT_FULL=1 or by a warm cache of weight >= 400 at
  $MORSECENSUS_CACHE.  Cold, the weight-400 table takes about 32 s on one
  core of a 2-CPU Xeon.  With both variables set, the run builds that
  cache, and later runs read it: no command writes a table that large.
"""
from __future__ import annotations

import os

import pytest

from morsecensus import inversion, recurrence

FULL_MAX_INDEX = 200
REDUCED_MAX_INDEX = 100


def _cache_path() -> str | None:
    return os.environ.get("MORSECENSUS_CACHE") or None


def _cached_weight(path: str) -> int:
    try:
        return recurrence.load_table(path).weight_bound
    except (OSError, recurrence.CacheFormatError):
        return -1


def acceptance_scale() -> int:
    if os.environ.get("MORSECENSUS_ACCEPT_FULL") == "1":
        return FULL_MAX_INDEX
    cache = _cache_path()
    if cache and _cached_weight(cache) >= 2 * FULL_MAX_INDEX:
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
    return inversion.morse_counts(acceptance_max_n)


@pytest.fixture(scope="session")
def census_table(acceptance_max_n):
    """The one expensive table, the reference for the counts."""
    return recurrence.build_table(2 * acceptance_max_n, cache_path=_cache_path())


@pytest.fixture(scope="session")
def small_counts():
    return inversion.morse_counts(15)


@pytest.fixture(scope="session")
def small_table():
    return recurrence.build_table(30)


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
