#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py compares against.

    python3 perfbench/make_reference.py

Runs every command of both scales (full and toy) once through
``child.py`` against this checkout's ``src``, writes each stdout to
``perfbench/reference`` (toy outputs under ``reference/toy``), and
cross-checks the census numbers once against two independent routes:

* the plain-Fraction fill, ``recurrence.extend_table(None, W,
  use_fractions=True)``, at W = 200, which covers every census row;
* brute-force ``trees.enumerate_morse_trees(n)`` for n <= 3
  (the paper's 1, 2, 19, 428).

Where the references came from is written to ``reference/SOURCE.json``.
Run it only at a commit whose outputs are known good: the benchmark
treats every later difference from these files as a wrong answer.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import run

FRACTION_WEIGHT = 200


def record(scale: str, workdir) -> dict[str, list[str]]:
    spec = run.SCALES[scale]
    out_dir = run.HERE / "reference" / ("toy" if scale == "toy" else "")
    out_dir.mkdir(parents=True, exist_ok=True)
    children = run.Children(workdir, time.monotonic() + 3600)
    cache = workdir / f"{scale}.cache"
    commands = {}
    # the cold pair first, on an empty cache, then the warm pass on the W it left
    steps = [*spec["cold"], spec["warm_build"], *spec["warm_pass"]]
    for ref_name, args in steps:
        rec = children.run([*args, "--cache", str(cache)])
        if rec["code"] != 0:
            raise SystemExit(f"{args} exited {rec['code']}")
        path = out_dir / ref_name
        if ref_name in commands and path.read_bytes() != rec["stdout"]:
            raise SystemExit(f"{args} printed something else than the earlier {ref_name}")
        path.write_bytes(rec["stdout"])
        commands[ref_name] = args
    return commands


def cross_check() -> dict:
    sys.path.insert(0, str(run.SRC))
    from morsecensus import recurrence, trees

    rows = json.loads((run.HERE / "reference" / "census100.json").read_text())
    t0 = time.monotonic()
    table = recurrence.extend_table(None, FRACTION_WEIGHT, use_fractions=True)
    fraction_s = time.monotonic() - t0
    checked = 0
    for row in rows:
        n = row["n"]
        if table.normalized_count(n) != Fraction(row["h"]) or table.morse_count(n) != int(row["g"]):
            raise SystemExit(f"Fraction route disagrees with the census reference at n={n}")
        checked += 1
    counts = [len(trees.enumerate_morse_trees(n)) for n in range(4)]
    if counts != [int(row["g"]) for row in rows[:4]] or counts != [1, 2, 19, 428]:
        raise SystemExit(f"enumeration {counts} disagrees with the census reference")
    toy = json.loads((run.HERE / "reference" / "toy" / "census10.json").read_text())
    if toy != rows[:len(toy)]:
        raise SystemExit("toy census rows differ from the full census reference")
    return {
        "fraction_route": {"weight_bound": FRACTION_WEIGHT, "rows_equal": checked,
                           "seconds": round(fraction_s, 1)},
        "enumeration_counts_n0_to_3": counts,
        "toy_census_rows_equal": len(toy),
    }


def main() -> int:
    workdir = run.ROOT / ".bench_run" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = {scale: record(scale, workdir) for scale in ("full", "toy")}
    finally:
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()
    checks = cross_check()
    digests = {}
    for path in sorted((run.HERE / "reference").rglob("*")):
        if path.is_file() and path.name != "SOURCE.json":
            rel = path.relative_to(run.HERE / "reference").as_posix()
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    git = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    source = {
        "recorded_at_commit": git or "unknown",
        "recorded_on": datetime.date.today().isoformat(),
        "machine": run.machine_facts(),
        "how": "stdout of each command, run by perfbench/child.py against src/; "
               "cold pair on an empty cache, then the warm build and pass on that cache",
        "commands": commands,
        "cross_checks": checks,
        "sha256": digests,
    }
    (run.HERE / "reference" / "SOURCE.json").write_text(json.dumps(source, indent=2) + "\n")
    print(json.dumps(checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
