#!/usr/bin/env python3
"""Benchmark of the morsecensus package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``cold-census``: ``census --max-n 60`` then ``census --max-n 100 --format
  json`` on a fresh cache file, as two child processes;
* ``warm-verify``: eight commands (census, table, verify, oracle) against
  a W=200 cache that set-up builds with the code under test;
* ``tree-codec``: in-process ``enumerate_morse_trees(3)`` plus the
  encode/text/decode round trip of a seeded set of Morse trees.

Load model: one closed-loop client; an operation starts when the previous
one has finished, and at most one child process runs at a time.  Every
output is compared with the references recorded in
``perfbench/reference``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``).  ``--toy`` swaps in small inputs for the tests.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import treeset  # noqa: E402

# (reference file, CLI arguments); every command also gets --cache <file>
SCALES = {
    "full": {
        "cold": [("census60.txt", ["census", "--max-n", "60"]),
                 ("census100.json", ["census", "--max-n", "100", "--format", "json"])],
        "warm_build": ("census100.json", ["census", "--max-n", "100", "--format", "json"]),
        "warm_pass": [
            ("census100.json", ["census", "--max-n", "100", "--format", "json"]),
            ("table128.txt", ["table", "--points", "10,20,30,40,50,100"]),
            ("table512.txt", ["table", "--points", "10,20,30,40,50,100", "--precision", "512"]),
            ("bounds100.txt", ["verify", "bounds", "--max-n", "100"]),
            ("pde40.txt", ["verify", "pde", "--order", "40"]),
            ("tan100.txt", ["verify", "tan", "--max-k", "100"]),
            ("elliptic.txt", ["verify", "elliptic"]),
            ("oracle3.txt", ["oracle", "3"]),
        ],
        "enumerate": (3, 428),
    },
    "toy": {
        "cold": [("census6.txt", ["census", "--max-n", "6"]),
                 ("census10.json", ["census", "--max-n", "10", "--format", "json"])],
        # W=100, so that `verify elliptic` needs no extension either
        "warm_build": ("census50.json", ["census", "--max-n", "50", "--format", "json"]),
        "warm_pass": [
            ("census10.json", ["census", "--max-n", "10", "--format", "json"]),
            ("table128.txt", ["table", "--points", "4,6,8,10"]),
            ("table256.txt", ["table", "--points", "4,6,8,10", "--precision", "256"]),
            ("bounds10.txt", ["verify", "bounds", "--max-n", "10"]),
            ("pde8.txt", ["verify", "pde", "--order", "8"]),
            ("tan10.txt", ["verify", "tan", "--max-k", "10"]),
            ("elliptic.txt", ["verify", "elliptic"]),
            ("oracle2.txt", ["oracle", "2"]),
        ],
        "enumerate": (2, 19),
    },
}

# Set-up repeats per untraced run; warm-verify's set-up is a 13 s table
# fill, and a third repeat would make each of its runs about a minute long.
SETUP_REPS = {"cold-census": 3, "warm-verify": 2, "tree-codec": 3}
# Every run but a --toy one measures for at least this long, whatever
# --seconds says (BENCHMARK.json states it in each workload's "why").  The
# speed of a shared 2-core machine switches between phases about 14% apart
# that last 10-20 s, so one 15 s cold-census operation spreads by about 10%
# between runs; two operations halve that.
MIN_MEASURE_S = {"cold-census": 25.0, "warm-verify": 0.0, "tree-codec": 12.0}
RUN_BUDGET_S = 170.0  # the whole run, set-up included, must end well inside 180 s

# what the generic op_s is called in each workload's text report
OP_NAMES = {
    "cold-census": "census_cold_s",
    "warm-verify": "verify_pass_s",
    "tree-codec": "trees_pass_s",
}


class BenchError(RuntimeError):
    """Set-up could not produce the inputs the workload needs."""


now_ns = time.monotonic_ns


class Op:
    """Outcome of one measured operation."""

    def __init__(self):
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rss_kb = 0
        self.nodes = 0  # tree-codec: nodes of the trees that round-tripped
        self.codec_ns = 0  # tree-codec: time in codec attempts
        self.records: list[dict] = []  # traced command/pass records

    def outcome(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong


# ---------------------------------------------------------------------------
# child processes


class Children:
    """Runs ``child.py`` commands one at a time under a run deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "MORSECENSUS_CACHE"}
        self.count = 0

    def run(self, args: list[str], trace: bool = False) -> dict:
        self.count += 1
        out_path = self.workdir / f"out.{self.count}"
        trace_path = self.workdir / f"trace.{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py")]
        if trace:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *args]
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "ab") as err:
            spawn = now_ns()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.workdir)
        lock = threading.Lock()
        live = [True]

        def kill() -> None:
            with lock:
                if live[0]:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
        timer.start()
        try:
            # WNOWAIT keeps the zombie, so the pid cannot be reused before `live` drops
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            reaped = now_ns()
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            with lock:
                live[0] = False
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"args": args, "code": proc.returncode, "stdout": out_path.read_bytes(),
                  "spawn": spawn, "reaped": reaped, "rss_kb": usage.ru_maxrss}
        out_path.unlink()
        if trace and trace_path.exists():
            record.update(json.loads(trace_path.read_text()))
            trace_path.unlink()
        return record

    def probe(self) -> None:
        """One interpreter start that imports the CLI from this checkout."""
        rec = self.run(["--probe"])
        if rec["code"] != 0:
            raise BenchError(f"cannot import morsecensus from {SRC} (exit {rec['code']})")


@functools.cache
def reference(scale: str, name: str) -> bytes:
    sub = HERE / "reference" / ("toy" if scale == "toy" else "")
    return (sub / name).read_bytes()


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    def __init__(self, scale: str, workdir: Path, seed: int, deadline: float):
        self.spec = SCALES[scale]
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.children = Children(workdir, deadline)

    def commands(self, op: Op, steps, cache: Path, trace: bool) -> None:
        start = now_ns()
        for ref_name, args in steps:
            rec = self.children.run([*args, "--cache", str(cache)], trace)
            good = rec["code"] == 0 and rec["stdout"] == reference(self.scale, ref_name)
            op.outcome(good, wrong=rec["code"] == 0 and not good)
            op.rss_kb = max(op.rss_kb, rec["rss_kb"])
            if trace:
                op.records.append(rec)
        op.wall_ns = now_ns() - start


def _remove_cache(path: Path) -> None:
    for p in path.parent.glob(path.name + "*"):
        p.unlink()


class ColdCensus(CliWorkload):
    def setup(self) -> None:
        self.children.probe()

    def op(self, trace: bool) -> Op:
        op = Op()
        cache = self.workdir / "cold.cache"
        _remove_cache(cache)
        self.commands(op, self.spec["cold"], cache, trace)
        _remove_cache(cache)
        return op


class WarmVerify(CliWorkload):
    def setup(self) -> None:
        self.cache = self.workdir / "warm.cache"
        _remove_cache(self.cache)
        ref_name, args = self.spec["warm_build"]
        rec = self.children.run([*args, "--cache", str(self.cache)])
        if rec["code"] != 0 or rec["stdout"] != reference(self.scale, ref_name):
            raise BenchError(f"warm cache build {args} failed or printed a wrong table")

    def op(self, trace: bool) -> Op:
        op = Op()
        steps = list(self.spec["warm_pass"])
        self.rng.shuffle(steps)
        self.commands(op, steps, self.cache, trace)
        return op


class TreeCodec:
    def __init__(self, scale: str, workdir: Path, seed: int, deadline: float):
        self.spec = SCALES[scale]
        self.grid = treeset.TOY if scale == "toy" else treeset.FULL
        self.seed = seed
        self.children = Children(workdir, deadline)
        sys.path.insert(0, str(SRC))
        from morsecensus import trees

        if not trees.__file__.startswith(str(SRC) + os.sep):
            raise BenchError(f"morsecensus imported from {trees.__file__}, not from {SRC}")
        self.trees = trees

    def setup(self) -> None:
        self.children.probe()
        self.inputs = []
        for n, edges in treeset.tree_set(self.seed, self.grid):
            tree = self.trees.MorseTree.from_edges(n, edges)
            if not self.trees.is_morse_tree(tree):
                raise BenchError(f"generated tree of index {n} is not a Morse tree")
            self.inputs.append(tree)

    def op(self, trace: bool) -> Op:
        trees = self.trees
        op = Op()
        spans = tracer.Tracer()
        undo = tracer.install(spans) if trace else []
        start = now_ns()
        try:
            enum_n, enum_count = self.spec["enumerate"]
            try:
                ok = len(trees.enumerate_morse_trees(enum_n)) == enum_count
                op.outcome(ok, wrong=not ok)
            except Exception:
                op.outcome(False)
            for tree in self.inputs:
                t0 = now_ns()
                try:
                    pair = trees.encode(tree)
                    back_pair = trees.pair_from_text(trees.pair_to_text(pair))
                    ok = back_pair == pair and trees.decode(back_pair) == tree
                    op.outcome(ok, wrong=not ok)
                except Exception:  # RecursionError on over-deep combs: a failed operation
                    ok = False
                    op.outcome(False)
                op.codec_ns += now_ns() - t0
                op.nodes += (2 * tree.n + 2) if ok else 0
            op.wall_ns = now_ns() - start
        finally:
            tracer.uninstall(undo)
        op.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            op.records.append({"spans": spans.take()})
        return op


WORKLOADS = {"cold-census": ColdCensus, "warm-verify": WarmVerify, "tree-codec": TreeCodec}


# ---------------------------------------------------------------------------
# machine facts


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "morsecensus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one run


def run(args) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    scale = "toy" if args.toy else "full"
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](scale, workdir, args.seed, deadline)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS[args.workload]):
            t0 = time.monotonic()
            workload.setup()
            setup_times.append(time.monotonic() - t0)
            if time.monotonic() - started > RUN_BUDGET_S / 3:
                break
        measure_s = args.seconds
        if not args.toy:
            measure_s = max(measure_s, MIN_MEASURE_S[args.workload])
        plain: list[Op] = []
        traced: list[Op] = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            plain.append(workload.op(False))
            if args.trace:
                traced.append(workload.op(True))
            spent = time.monotonic() - t0
            if (time.monotonic() - measure_start >= measure_s
                    or time.monotonic() + spent > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    ops = plain + traced
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    wrong = sum(op.wrong for op in ops)
    summary = {
        "ops": len(plain),
        "traced_ops": len(traced),
        "setup_reps": len(setup_times),
        "measured_s": round(time.monotonic() - measure_start, 3),
    }
    if args.trace:
        per_op = [tracer.layer_metrics(op.records, op.wall_ns) for op in traced]
        metrics = tracer.median_metrics(per_op)
        metrics["trace.overhead_s"] = (statistics.median(op.wall_ns for op in traced)
                                       - statistics.median(op.wall_ns for op in plain)) / 1e9
        # codec throughput from the untraced passes, so the wrappers do not slow it
        codec_ns = sum(op.codec_ns for op in plain)
        metrics["trees.codec_nodes_per_s"] = (
            sum(op.nodes for op in plain) / (codec_ns / 1e9) if codec_ns else 0.0)
        units = {m["name"]: m["unit"] for m in METRICS["per_layer"]}
    else:
        p_attempted = sum(op.attempted for op in plain)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(op.wall_ns for op in plain) / 1e9,
            "peak_rss_mb": max(op.rss_kb for op in plain) / 1024,
            "ok_frac": (p_attempted - sum(op.failed for op in plain)) / p_attempted,
        }
        units = {m["name"]: m["unit"] for m in METRICS["end_to_end"]}
    return {
        "summary": summary,
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def report(args, facts: dict, out: dict) -> None:
    res = out["result"]
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in out["summary"].items()))
    for name, m in res["metrics"].items():
        alias = OP_NAMES[args.workload] if name == "op_s" else None
        print(f"{alias or name} = {m['value']:.6g} {m['unit']}"
              + (f"  ({name})" if alias else ""))
    share = res["failed"] / res["attempted"]
    print(f"failed_frac = {share:.6g} ratio  ({res['failed']}/{res['attempted']} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="small inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "morsecensus" / "__init__.py").is_file():
        print(f"no morsecensus package at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    report(args, facts, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
