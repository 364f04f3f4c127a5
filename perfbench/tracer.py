"""Span recording around the public functions of the morsecensus package.

A traced run rebinds every module attribute that names a public function
of one of the package's modules to a timing wrapper, including names
imported into other modules (``cli.format_rational`` and
``analysis.scaled_tangent_series`` are the same function objects as
``exactmath.format_rational`` and ``series.scaled_tangent_series``).
Spans are kept in memory as ``[name, module, start_ns, end_ns, parent,
error, extra]`` lists and written out when the traced process ends.
Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux), so
spans written by child processes line up with the parent's clock.

Nothing in the package source is changed: the wrappers are installed
from outside, after import, and removed again with :func:`uninstall`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from math import comb, factorial

MODULES = ("cli", "recurrence", "analysis", "series", "exactmath", "trees")

NAME, MODULE, START, END, PARENT, ERROR, EXTRA = range(7)


class Tracer:
    """In-memory span stack for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, module: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, module, time.monotonic_ns(), 0, parent, None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.monotonic_ns()
        span[ERROR] = error
        self._stack.pop()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, module: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, module)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, type(exc).__name__)
                raise
            self.close(idx)
            if hook is not None:
                # the hook's own cost is booked to the tracer, not to the caller
                h = self.open("trace.hook", "trace")
                self.spans[idx][EXTRA] = hook(args, kwargs, result)
                self.close(h)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters read at layer boundaries


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _extend_hook(args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    start = table.weight_bound if table is not None else 0
    filled = sum(w // 2 + 1 for w in range(start + 1, result.weight_bound + 1))
    bits = max(q.numerator.bit_length() for _, q in result.items()) if filled else 0
    return {"entries": filled, "bits": bits}


def _file_bytes_hook(pos: int):
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}
    return hook


def _pde_hook(args, kwargs, result):
    return {"terms": len(_arg(args, kwargs, 0, "series").coeffs)}


def _enumerate_hook(args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    # Pruefer strings in which n chosen labels of 2n+2 appear twice each
    tried = comb(2 * n + 2, n) * factorial(2 * n) // 2 ** n
    return {"found": len(result), "tried": tried}


HOOKS = {
    "recurrence.extend_table": _extend_hook,
    "recurrence.save_table": _file_bytes_hook(1),
    "recurrence.load_table": _file_bytes_hook(0),
    "series.pde_residual": _pde_hook,
    "trees.enumerate_morse_trees": _enumerate_hook,
}


def install(tracer: Tracer):
    """Wrap every public function of the package; returns the undo list."""
    package = importlib.import_module("morsecensus")
    mods = {short: importlib.import_module(f"morsecensus.{short}") for short in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                qual = f"{short}.{name}"
                wrappers[fn] = tracer.wrap(fn, qual, short, HOOKS.get(qual))
    undo = []
    for mod in (package, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    table_cls = mods["recurrence"].CensusTable
    undo.append((table_cls, "morse_count", table_cls.morse_count))
    table_cls.morse_count = tracer.wrap(table_cls.morse_count, "recurrence.morse_count",
                                        "recurrence")
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-operation layer figures

LAYER_FUNCTIONS = {
    "recurrence": ("extend_table", "save_table", "load_table", "morse_count"),
    "analysis": ("asymptotic_row", "check_upper_bound", "check_conjecture",
                 "series_argument", "series_value", "fit_residual_model"),
    "series": ("scaled_tangent_series", "ode_comparison_series",
               "bivariate_generating_series", "pde_residual"),
    "exactmath": ("format_rational", "log_rational", "bernoulli"),
    "trees": ("enumerate_morse_trees", "encode", "decode", "pair_to_text", "pair_from_text"),
}


def span_figures(spans: list[list]) -> dict:
    """Self time per module, inclusive time/calls/failures/extras per function.

    Inclusive time counts only the outermost span of a name, so a function
    reached again through its own module attribute is not counted twice.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    extras: dict[str, list] = {}
    for i, span in enumerate(spans):
        name, module, dur = span[NAME], span[MODULE], span[END] - span[START]
        self_ns[module] = self_ns.get(module, 0) + dur - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        if span[ERROR] is not None:
            failed[name] = failed.get(name, 0) + 1
        if span[EXTRA] is not None:
            extras.setdefault(name, []).append(span[EXTRA])
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            incl_ns[name] = incl_ns.get(name, 0) + dur
    return {"self_ns": self_ns, "incl_ns": incl_ns, "calls": calls,
            "failed": failed, "extras": extras}


def layer_metrics(commands: list[dict], op_wall_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced operation.

    ``commands`` holds one record per traced process or pass: ``spans``,
    and for child processes the ``spawn``/``entry``/``main_end``/``reaped``
    stamps and the ``install_ns`` spent laying the wrappers.
    """
    out: dict[str, float] = {}
    total_self: dict[str, int] = {}
    incl: dict[str, int] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    extras: dict[str, list] = {}
    startup = exit_ns = install = hits = misses = 0
    for cmd in commands:
        fig = span_figures(cmd.get("spans", []))
        for key, acc in (("self_ns", total_self), ("incl_ns", incl), ("calls", calls),
                         ("failed", failed)):
            for name, value in fig[key].items():
                acc[name] = acc.get(name, 0) + value
        for name, values in fig["extras"].items():
            extras.setdefault(name, []).extend(values)
        if "entry" in cmd:  # a child process that wrote its trace
            install += cmd["install_ns"]
            startup += cmd["entry"] - cmd["spawn"] - cmd["install_ns"]
            exit_ns += cmd["reaped"] - cmd["main_end"]
        fills = sum(e["entries"] for e in fig["extras"].get("recurrence.extend_table", []))
        if fills:
            misses += 1
        elif fig["calls"].get("recurrence.load_table"):
            hits += 1

    def secs(ns: int) -> float:
        return ns / 1e9

    out["cli.startup_s"] = secs(startup)
    out["cli.self_s"] = secs(total_self.get("cli", 0))
    out["cli.exit_s"] = secs(exit_ns)
    for module, functions in LAYER_FUNCTIONS.items():
        out[f"{module}.self_s"] = secs(total_self.get(module, 0))
        for fn in functions:
            out[f"{module}.{fn}.s"] = secs(incl.get(f"{module}.{fn}", 0))
    for name in ("recurrence.extend_table", "recurrence.load_table", "recurrence.morse_count",
                 "analysis.asymptotic_row", "exactmath.format_rational",
                 "trees.encode", "trees.decode"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["trees.encode.failed"] = failed.get("trees.encode", 0)
    out["trees.decode.failed"] = failed.get("trees.decode", 0)
    fills = extras.get("recurrence.extend_table", [])
    out["recurrence.entries_filled"] = sum(e["entries"] for e in fills)
    out["recurrence.max_bits"] = max((e["bits"] for e in fills), default=0)
    out["recurrence.save_table.bytes"] = sum(
        e["bytes"] for e in extras.get("recurrence.save_table", []))
    out["recurrence.load_table.bytes"] = sum(
        e["bytes"] for e in extras.get("recurrence.load_table", []))
    out["recurrence.cache_hits"] = hits
    out["recurrence.cache_misses"] = misses
    out["series.pde_residual.terms"] = sum(
        e["terms"] for e in extras.get("series.pde_residual", []))
    enum = extras.get("trees.enumerate_morse_trees", [])
    tried = sum(e["tried"] for e in enum)
    out["trees.enumerate_morse_trees.yield"] = (
        sum(e["found"] for e in enum) / tried if tried else 0.0)
    out["trace.self_s"] = secs(total_self.get("trace", 0) + install)
    attributed = startup + exit_ns + install + sum(total_self.values())
    out["trace.op_s"] = secs(op_wall_ns)
    out["trace.unattributed_s"] = secs(op_wall_ns - attributed)
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
