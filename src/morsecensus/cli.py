"""Command-line front end.

Subcommands: census, table, verify, oracle, encode, decode.  The counts
that `census`, `table` and `verify bounds|conjecture|elliptic` print or
check come from the one-variable route of :mod:`series`, in memory.
`verify pde` and `oracle` fill the small two-parameter table of
:mod:`recurrence` they need, in memory too: weight 79 at `verify pde
--order 80`, weight 8 for `oracle`.

Each command imports the layers it runs, inside its handler, so a process
loads no more than its command needs:

* census, verify bounds|conjecture|tan: series;
* table, verify elliptic: series and analysis, which computes the reals
  of `table` in `decimal`;
* verify pde: recurrence and series;  oracle: recurrence and trees;
* encode, decode: trees.

Only `argparse` loads with this module, beyond `os`, `sys` and `math`,
which an interpreter has loaded at start-up, and `json` only for `census
--format json` and `table --format json`.  Both commands print
their text, CSV and JSON records through one writer, :func:`_print_records`.

Each `verify` suite is a subcommand that declares only its own bound,
which argparse checks (:func:`_at_least`); every handler takes `args`.
Two flags are inert: `--cache`, declared once on a parent parser, and
`table --precision`, which still refuses a value below 64 but changes no
printed digit (see :data:`analysis.ROW_DIGITS`).  Both stay only while
the benchmark's command lines pass them.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 I/O error, 4 internal error (a :class:`ConsistencyError`).
"""
from __future__ import annotations

import argparse
import os
import sys
from math import factorial

from . import ConsistencyError

REFERENCE_TABLE_POINTS = (10, 20, 30, 40, 50, 100, 150, 200)
ELLIPTIC_POINTS = (0.05, 0.1, 0.2)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# census


def _print_records(records: list[dict], fmt: str, line: str) -> None:
    """Print dict records as text (`line.format_map(record)` per record), as
    CSV (a header of the field names, then one comma-joined line per record)
    or as JSON (`json.dumps(records, indent=2)`)."""
    if fmt == "json":
        import json

        print(json.dumps(records, indent=2))
    elif fmt == "csv":
        print(",".join(records[0]))
        for record in records:
            print(",".join(map(str, record.values())))
    else:
        for record in records:
            print(line.format_map(record))


def _cmd_census(args) -> int:
    from . import series
    from .exactmath import format_rational

    _print_records([{"n": n, "h": format_rational(g, factorial(2 * n + 1)), "g": format_rational(g)}
                    for n, g in enumerate(series.morse_counts(args.max_n))],
                   args.format, "n={n} h={h} g={g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotic table


def _cmd_table(args) -> int:
    from . import analysis, series
    from .exactmath import format_rational

    points = args.points
    counts = series.morse_counts(max(points))
    rows = [analysis.asymptotic_row(counts, n) for n in points]

    def real(x):  # 9 significant digits: a string in text and CSV, a number in JSON
        text = analysis.format_real(x)
        return float(text) if args.format == "json" else text

    _print_records([{"n": n, "h": format_rational(counts[n], factorial(2 * n + 1)),
                     "log_h": real(log_h), "delta": real(delta), "delta_over_n": real(delta_over_n)}
                    for n, log_h, delta, delta_over_n in rows],
                   args.format, "n={n} delta={delta} delta/n={delta_over_n}")
    if args.format == "text" and len({row.n for row in rows}) >= 4:
        a, b, c = analysis.fit_residual_model(rows)
        print(f"# heuristic least-squares fit delta ~ a*n + b*log n + c: "
              f"a={a:.4f} b={b:.4f} c={c:.4f} (suggestive only, no error bars)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verifiers


def _verify_tan(args) -> int:
    from . import series
    from .exactmath import format_rational

    via_seidel = series.scaled_tangent_series(args.max_k)
    via_ode = series.ode_comparison_series(args.max_k)
    for k, (a, b) in enumerate(zip(via_seidel, via_ode)):
        if a != b:
            scale = factorial(2 * k + 1) << k  # a_k = 2^k (2k+1)! u_k
            print(f"FAIL tan routes disagree at k={k}: "
                  f"bernoulli={format_rational(a, scale)} ode={format_rational(b, scale)}")
            return EXIT_VERIFY_FAIL
    print(f"ok tangent series via bernoulli == ode solution for k <= {args.max_k}")
    return EXIT_OK


def _verify_pde(args) -> int:
    from . import recurrence, series
    from .exactmath import format_rational

    table = recurrence.extend_table(None, args.order - 1)
    residual = series.pde_residual(series.bivariate_generating_series(table))
    if residual.coeffs:
        (a, b), c = min(residual.coeffs.items())
        print(f"FAIL pde residual nonzero, first coefficient: {a} {b}: "
              f"{format_rational(*c.as_integer_ratio())}")
        return EXIT_VERIFY_FAIL
    print(f"ok pde residual identically zero at truncation {args.order} "
          f"(retained second exponents <= {args.order - 1})")
    return EXIT_OK


def _verify_bounds(args) -> int:
    from . import series
    from .exactmath import catalan, format_rational

    tangent = series.scaled_tangent_series(args.max_n)
    for n, g in enumerate(series.morse_counts(args.max_n)):
        scale = factorial(2 * n + 1)
        if g << n < tangent[n]:  # h(n) >= u_n, times 2^n (2n+1)!
            print(f"FAIL lower bound at n={n}: h={format_rational(g, scale)}")
            return EXIT_VERIFY_FAIL
        # h(n) <= Catalan(n).  The "sharper upper estimate" (n+1) g <= 4^n (2n+1)!
        # is implied, not computed: it is weaker, as Catalan(n) (n+1) = C(2n, n) <= 4^n
        if g > catalan(n) * scale:
            print(f"FAIL upper bound at n={n}: h={format_rational(g, scale)}")
            return EXIT_VERIFY_FAIL
        if n >= 1 and g >= scale:
            print(f"FAIL conjecture g < (2n+1)! at n={n}")
            return EXIT_VERIFY_FAIL
    print(f"ok sandwich + sharper upper estimate + conjecture hold for n <= {args.max_n}")
    return EXIT_OK


def _verify_conjecture(args) -> int:
    from . import series
    from .exactmath import format_rational

    for n, g in enumerate(series.morse_counts(args.max_n)):
        scale = factorial(2 * n + 1)
        if n >= 1 and g >= scale:  # h(0) = 1 exactly: the strict bound starts at n = 1
            print(f"FAIL g < (2n+1)! at n={n}: h={format_rational(g, scale)}")
            return EXIT_VERIFY_FAIL
    print(f"ok g(n) < (2n+1)! for 1 <= n <= {args.max_n}")
    return EXIT_OK


def _verify_elliptic(args) -> int:
    from . import analysis, series

    # h(n) <= Catalan(n) ~ 4^n gives the series radius >= 1/2, so its terms to
    # n = 50 leave a truncation error far below 1e-8 at arguments below 0.25
    counts = series.morse_counts(50)
    for target in ELLIPTIC_POINTS:
        theta = analysis.series_argument(target)
        recovered = analysis.series_value(counts, theta)
        if abs(recovered - target) > 1e-8:
            print(f"FAIL elliptic round trip at {target}: recovered {recovered!r}")
            return EXIT_VERIFY_FAIL
        print(f"ok elliptic round trip at {target}: |error| = {abs(recovered - target):.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle and codecs


def _cmd_oracle(args) -> int:
    from . import recurrence, trees

    try:
        enumerated = trees.enumerate_morse_trees(args.n)
    except ValueError as exc:  # a negative index, or one past the enumeration budget
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    table = recurrence.extend_table(None, 2 * args.n)
    recurrence_count = table.morse_count(args.n)
    pairs = [trees.encode(t) for t in enumerated]
    injective = len(set(pairs)) == len(enumerated)
    round_trip = all(trees.decode(pair) == t for pair, t in zip(pairs, enumerated))
    print(f"oracle={len(enumerated)} recurrence={recurrence_count} "
          f"injective={'yes' if injective else 'no'}")
    if len(enumerated) != recurrence_count or not injective or not round_trip:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_encode(args) -> int:
    from . import trees

    try:
        text = _read_text(args.path)  # UnicodeDecodeError is a ValueError
        tree = trees.tree_from_text(text)
        pair = trees.encode(tree)
    except ValueError as exc:
        print(f"invalid tree: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    sys.stdout.write(trees.pair_to_text(pair))
    return EXIT_OK


def _cmd_decode(args) -> int:
    from . import trees

    try:
        text = _read_text(args.path)
        pair = trees.pair_from_text(text)
        tree = trees.decode(pair)
    except trees.NotInImageError as exc:
        print(f"not in the encoding's image: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ValueError as exc:
        print(f"invalid pair: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    sys.stdout.write(trees.tree_to_text(tree))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _points_list(text: str) -> list[int]:
    try:
        points = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad points list {text!r}")
    if not points or any(p < 1 for p in points):
        raise argparse.ArgumentTypeError("points must be a nonempty list of integers >= 1")
    return points


def _at_least(low: int):
    """The argparse type of an integer bound >= `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsecensus",
        description="Exact census of Morse classes on the sphere, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # inert, as is table --precision: both go once the benchmark's command
    # lines stop passing them
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", help=argparse.SUPPRESS)

    p = sub.add_parser("census", parents=[cache], help="count classes: n, h(n), g(n) rows")
    p.add_argument("--max-n", type=_at_least(0), required=True, metavar="N")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("table", parents=[cache], help="asymptotic residual table (delta rows)")
    p.add_argument("--points", type=_points_list, default=list(REFERENCE_TABLE_POINTS),
                   help="comma-separated indices (default: the 8 reference rows)")
    p.add_argument("--precision", type=_at_least(64), help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run one of the identity/bound suites")
    suites = p.add_subparsers(dest="suite", required=True)
    for name, func, summary in (("bounds", _verify_bounds, "tangent and Catalan bounds"),
                                ("conjecture", _verify_conjecture, "g(n) < (2n+1)!")):
        p = suites.add_parser(name, parents=[cache], help=summary)
        p.add_argument("--max-n", type=_at_least(0), default=50, metavar="N")
        p.set_defaults(func=func)
    p = suites.add_parser("tan", parents=[cache], help="tangent series, two routes")
    p.add_argument("--max-k", type=_at_least(0), default=50, metavar="K")
    p.set_defaults(func=_verify_tan)
    p = suites.add_parser("pde", parents=[cache], help="generating-function PDE residual")
    p.add_argument("--order", type=_at_least(1), default=25, metavar="V")
    p.set_defaults(func=_verify_pde)
    p = suites.add_parser("elliptic", parents=[cache], help="elliptic inversion round trip")
    p.set_defaults(func=_verify_elliptic)

    p = sub.add_parser("oracle", parents=[cache],
                       help="brute-force enumeration vs the recurrence")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("encode", help="Morse tree (edge list) -> shape + permutation")
    p.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="shape + permutation -> Morse tree edge list")
    p.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    p.set_defaults(func=_cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone away is exit 3, not a failed flush at shutdown
        return code
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # the shutdown flush then writes to devnull
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
