"""Tests of the benchmark itself, on toy-size inputs.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced with ``--toy``; the
tests check the printed metric names and units against BENCHMARK.json,
that the traced layer times account for the operation's wall time, and
the counts the workloads are defined to produce.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import treeset  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def toy_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def metric_values(result: dict, section: str) -> dict[str, float]:
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    return {name: m["value"] for name, m in result["metrics"].items()}


# the one over-deep comb (index about 600) in the toy tree set fails in encode
EXPECTED_FAILURES = {"cold-census": 0, "warm-verify": 0, "tree-codec": 1}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_end_to_end_metric(workload):
    lines, result = toy_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == EXPECTED_FAILURES[workload]
    values = metric_values(result, "end_to_end")
    assert all(value > 0 for value in values.values())
    report = "\n".join(lines[:-1])
    for m in BENCH["end_to_end"]:
        label = re.escape(run.OP_NAMES[workload] if m["name"] == "op_s" else m["name"])
        assert re.search(rf"^{label} = \S+ {re.escape(m['unit'])}\b", report, re.M), m["name"]
    assert re.search(r"^failed_frac = \S+ ratio", report, re.M)
    assert '"nproc"' in lines[0] and '"loadavg_start"' in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up_to_the_operation(workload):
    _, result = toy_run(workload, 1)
    assert result["correct"]
    m = metric_values(result, "per_layer")
    wall, rest = m["trace.op_s"], m["trace.unattributed_s"]
    assert wall > 0
    # startup + exit + every module's self time + tracer time = wall, up to
    # the parent's own bookkeeping (a few ms).  The tolerance is fixed: the
    # traced-minus-untraced overhead of one pair is mostly run-to-run noise.
    assert abs(rest) <= max(0.02 * wall, 0.005), m
    if workload == "cold-census":
        # census --max-n 6 builds W=12; --max-n 10 loads it and extends to W=20
        assert m["recurrence.extend_table.calls"] == 2
        assert m["recurrence.entries_filled"] == sum(w // 2 + 1 for w in range(1, 21))
        assert m["recurrence.load_table.calls"] == 1
        assert (m["recurrence.cache_hits"], m["recurrence.cache_misses"]) == (0, 2)
        assert m["recurrence.extend_table.s"] > 0 and m["recurrence.max_bits"] > 0
    elif workload == "warm-verify":
        # every command but `verify tan` reads the cache; none fills
        assert m["recurrence.extend_table.calls"] == 0
        assert m["recurrence.load_table.calls"] == 7
        assert (m["recurrence.cache_hits"], m["recurrence.cache_misses"]) == (7, 0)
        assert m["cli.startup_s"] > 0 and m["analysis.asymptotic_row.calls"] == 8
        assert m["series.pde_residual.terms"] > 0
    else:
        assert m["cli.startup_s"] == 0 and m["recurrence.extend_table.calls"] == 0
        assert m["trees.encode.failed"] == 1 and m["trees.decode.failed"] == 0
        assert m["trees.enumerate_morse_trees.yield"] == 19 / 90
        assert m["trees.codec_nodes_per_s"] > 0


def test_tree_set_is_seeded_and_valid():
    sys.path.insert(0, str(run.SRC))
    from morsecensus import trees

    first = treeset.tree_set(5, treeset.FULL)
    assert first == treeset.tree_set(5, treeset.FULL)
    assert first != treeset.tree_set(6, treeset.FULL)
    assert len(first) == treeset.FULL["balanced"][0] + len(treeset.FULL["combs"])
    assert all(trees.is_morse_tree(trees.MorseTree.from_edges(n, e)) for n, e in first)
    indices = sorted(n for n, _ in first)
    assert indices[0] >= 3 and indices[-1] <= 600


def test_checkout_without_the_package_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
