#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--traced 2] [--out FILE]

For every workload this makes one untraced run per seed and ``--traced``
traced runs (on the first seeds), all with the ``run_seconds`` of
BENCHMARK.json, and reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
which BENCHMARK.json's bounds must cover.  ``--out`` writes the summary,
with the machine facts of the first run, as a trajectory entry.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    facts = json.loads(lines[0][len("# machine "):]) if lines[0].startswith("# machine ") else {}
    return json.loads(lines[-1]), facts


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    seeds = seeds_from(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary = {"run_seconds": BENCH["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, facts_seen = [], []
        for seed in seeds:
            result, facts = one_run(workload, seed, 0)
            runs.append(result)
            facts_seen.append(facts)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  f"failed={result['failed']}/{result['attempted']} correct={result['correct']}",
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_frac": summarise([r["failed"] / r["attempted"] for r in runs]),
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "loadavg_start": [f["loadavg_start"][0] for f in facts_seen],
        }
        for name, stats in entry["end_to_end"].items():
            stats["bound"] = bounds[name]
            print(f"  {name}: median {stats['median']:.6g} spread {stats['spread']}"
                  f" (bound {bounds[name]})", flush=True)
        traced = [one_run(workload, seed, 1)[0] for seed in seeds[:args.traced]]
        if traced:
            entry["per_layer"] = {name: summarise([r["metrics"][name]["value"] for r in traced])
                                  for name in traced[0]["metrics"]}
            overhead = entry["per_layer"]["trace.overhead_s"]["median"]
            print(f"  trace.overhead_s median {overhead:.4g} over {len(traced)} traced runs",
                  flush=True)
        summary["workloads"][workload] = entry
        summary.setdefault("machine", facts_seen[0])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
