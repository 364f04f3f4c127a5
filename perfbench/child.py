"""Run one morsecensus CLI command from this checkout's ``src`` tree.

    python3 perfbench/child.py [--trace FILE] -- <cli arguments>
    python3 perfbench/child.py --probe

The package is imported from ``<checkout>/src`` and nowhere else; any
other copy on the path is refused with exit code 97.  With ``--trace``,
timing wrappers are laid over the package's public functions before
``cli.main`` runs, and the spans plus the entry/exit stamps are written
to FILE as JSON when ``cli.main`` returns.  ``--probe`` only imports the
CLI module, which is the interpreter start-up every command pays.
"""
from __future__ import annotations

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WRONG_PACKAGE = 97


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    import morsecensus.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"morsecensus imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return WRONG_PACKAGE
    if argv == ["--probe"]:
        return 0
    if trace_file is None:
        return cli.main(argv)

    import tracer

    t0 = time.monotonic_ns()
    spans = tracer.Tracer()
    tracer.install(spans)
    t1 = time.monotonic_ns()
    try:
        code = cli.main(argv)
    finally:
        t2 = time.monotonic_ns()
        with open(trace_file, "w") as fh:
            json.dump({"install_ns": t1 - t0, "entry": t1, "main_end": t2,
                       "spans": spans.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
