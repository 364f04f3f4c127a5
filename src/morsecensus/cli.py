"""Command-line front end.

Subcommands: census, table, verify, oracle, encode, decode.  The counts
that `census`, `table` and `verify bounds|conjecture|elliptic` print or
check come from the one-variable route of :mod:`inversion`, in memory.
`verify pde` and `oracle` read the two-parameter table of :mod:`recurrence`
through the cache file, whose path comes from --cache or, without it, from
the MORSECENSUS_CACHE environment variable; with neither, the table is
computed in memory.  `census`, `table` and `verify` accept --cache as well,
and only `verify pde` among them reads it.

Each command imports the layers it runs, inside its handler, so a process
loads no more than its command needs:

* census, verify bounds|conjecture: inversion (and series for bounds);
* verify tan: series;  verify elliptic: inversion and analysis, without mpmath;
* table: inversion and analysis, with mpmath, the only command that loads it;
* verify pde: recurrence and series;  oracle: recurrence and trees;
* encode, decode: trees.

Only `argparse`, `os` and `sys` load with this module, and `json` only for
`census --format json`.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys

CACHE_ENV_VAR = "MORSECENSUS_CACHE"
REFERENCE_TABLE_POINTS = (10, 20, 30, 40, 50, 100, 150, 200)
ELLIPTIC_POINTS = (0.05, 0.1, 0.2)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _cache_path(args) -> str | None:
    if args.cache is not None:
        return args.cache
    return os.environ.get(CACHE_ENV_VAR) or None


def _table(weight_bound: int, args):
    """The two-parameter table through the cache, or None once a malformed
    cache has been reported on stderr (exit 3)."""
    from . import recurrence

    try:
        return recurrence.build_table(weight_bound, _cache_path(args))
    except recurrence.CacheFormatError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# census


def _normalized(n: int, g: int):
    """h(n) = g(n) / (2n+1)!, a Fraction."""
    from fractions import Fraction

    from .exactmath import factorial

    return Fraction(g, factorial(2 * n + 1))


def _cmd_census(args) -> int:
    from . import inversion
    from .exactmath import format_rational

    rows = [(n, format_rational(_normalized(n, g)), format_rational(g))
            for n, g in enumerate(inversion.morse_counts(args.max_n))]
    if args.format == "json":
        import json

        records = [{"n": n, "h": h, "g": g} for n, h, g in rows]
        print(json.dumps(records, indent=2))
    elif args.format == "csv":
        print("n,h,g")
        for n, h, g in rows:
            print(f"{n},{h},{g}")
    else:
        for n, h, g in rows:
            print(f"n={n} h={h} g={g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotic table


def _cmd_table(args) -> int:
    from . import analysis, inversion

    points = args.points
    counts = inversion.morse_counts(max(points))
    rows = [analysis.asymptotic_row(counts, n, args.precision) for n in points]
    if args.format == "json":
        sys.stdout.write(analysis.rows_to_json(rows))
    elif args.format == "csv":
        sys.stdout.write(analysis.rows_to_csv(rows))
    else:
        for row in rows:
            print(f"n={row.n} delta={analysis.format_real(row.delta)} "
                  f"delta/n={analysis.format_real(row.delta_over_n)}")
        if len({row.n for row in rows}) >= 4:
            a, b, c = analysis.fit_residual_model(rows)
            print(f"# heuristic least-squares fit delta ~ a*n + b*log n + c: "
                  f"a={a:.4f} b={b:.4f} c={c:.4f} (suggestive only, no error bars)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verifiers


def _cmd_verify(args) -> int:
    if args.which == "tan":
        return _verify_tan(args.max_k)
    if args.which == "pde":
        return _verify_pde(args)
    if args.which == "bounds":
        return _verify_bounds(args.max_n)
    if args.which == "conjecture":
        return _verify_conjecture(args.max_n)
    return _verify_elliptic()


def _verify_tan(max_k: int) -> int:
    from . import series

    via_bernoulli = series.scaled_tangent_series(max_k)
    via_ode = series.ode_comparison_series(max_k)
    for k in range(max_k + 1):
        a = via_bernoulli.coefficient(2 * k + 1)
        b = via_ode.coefficient(2 * k + 1)
        if a != b:
            print(f"FAIL tan routes disagree at k={k}: bernoulli={a} ode={b}")
            return EXIT_VERIFY_FAIL
    print(f"ok tangent series via bernoulli == ode solution for k <= {max_k}")
    return EXIT_OK


def _verify_pde(args) -> int:
    from . import series

    order = args.order
    table = _table(max(order - 1, 0), args)
    if table is None:
        return EXIT_IO
    residual = series.pde_residual(series.bivariate_generating_series(table, order))
    if not residual.is_zero():
        first = residual.lines()[0]
        print(f"FAIL pde residual nonzero, first coefficient: {first}")
        return EXIT_VERIFY_FAIL
    print(f"ok pde residual identically zero at truncation {order} "
          f"(retained second exponents <= {order - 1})")
    return EXIT_OK


def _verify_bounds(max_n: int) -> int:
    from . import inversion, series
    from .exactmath import format_rational

    ode = series.scaled_tangent_series(max_n)
    for n, g in enumerate(inversion.morse_counts(max_n)):
        h = _normalized(n, g)
        if h < ode.coefficient(2 * n + 1):
            print(f"FAIL lower bound at n={n}: h={format_rational(h)}")
            return EXIT_VERIFY_FAIL
        if not inversion.check_upper_bound(n, g):
            print(f"FAIL upper bound at n={n}: h={format_rational(h)}")
            return EXIT_VERIFY_FAIL
        if n >= 1 and not inversion.check_conjecture(n, g):
            print(f"FAIL conjecture g < (2n+1)! at n={n}")
            return EXIT_VERIFY_FAIL
    print(f"ok sandwich + sharper upper estimate + conjecture hold for n <= {max_n}")
    return EXIT_OK


def _verify_conjecture(max_n: int) -> int:
    from . import inversion
    from .exactmath import format_rational

    for n, g in enumerate(inversion.morse_counts(max_n)):
        if n >= 1 and not inversion.check_conjecture(n, g):
            print(f"FAIL g < (2n+1)! at n={n}: h={format_rational(_normalized(n, g))}")
            return EXIT_VERIFY_FAIL
    print(f"ok g(n) < (2n+1)! for 1 <= n <= {max_n}")
    return EXIT_OK


def _verify_elliptic() -> int:
    from . import analysis, inversion

    counts = inversion.morse_counts(50)
    for target in ELLIPTIC_POINTS:
        theta = analysis.series_argument(target, tol=1e-12)
        recovered = analysis.series_value(counts, theta, terms=50)
        if abs(recovered - target) > 1e-8:
            print(f"FAIL elliptic round trip at {target}: recovered {recovered!r}")
            return EXIT_VERIFY_FAIL
        print(f"ok elliptic round trip at {target}: |error| = {abs(recovered - target):.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle and codecs


def _cmd_oracle(args) -> int:
    from . import trees

    budget = 4 if args.extended else 3
    if args.n < 0:
        print(f"oracle index must be >= 0; got n={args.n}", file=sys.stderr)
        return EXIT_USAGE
    if args.n > budget:
        print(f"oracle budget is n <= {budget}"
              f"{'' if args.extended else ' (use --extended for n=4)'}; got n={args.n}",
              file=sys.stderr)
        return EXIT_USAGE
    table = _table(2 * args.n, args)
    if table is None:
        return EXIT_IO
    enumerated = trees.enumerate_morse_trees(args.n)
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


def _add_cache_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help=f"table cache file, read by `verify pde` and `oracle` "
                                   f"(default: ${CACHE_ENV_VAR})")


def _points_list(text: str) -> list[int]:
    try:
        points = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad points list {text!r}")
    if not points or any(p < 1 for p in points):
        raise argparse.ArgumentTypeError("points must be a nonempty list of integers >= 1")
    return points


def _precision_bits(text: str) -> int:
    bits = int(text)
    if bits < 64:
        raise argparse.ArgumentTypeError("precision must be at least 64 bits")
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsecensus",
        description="Exact census of Morse classes on the sphere, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count classes: n, h(n), g(n) rows")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("table", help="asymptotic residual table (delta rows)")
    p.add_argument("--points", type=_points_list, default=list(REFERENCE_TABLE_POINTS),
                   help="comma-separated indices (default: the 8 reference rows)")
    p.add_argument("--precision", type=_precision_bits, default=128, metavar="BITS")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run one of the identity/bound suites")
    p.add_argument("which", choices=("bounds", "pde", "tan", "elliptic", "conjecture"))
    p.add_argument("--max-n", type=int, default=50, help="bounds/conjecture range")
    p.add_argument("--max-k", type=int, default=50, help="tan series order")
    p.add_argument("--order", type=int, default=25, help="pde truncation bound")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force enumeration vs the recurrence")
    p.add_argument("n", type=int)
    p.add_argument("--extended", action="store_true", help="allow the n=4 budget")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("encode", help="Morse tree (edge list) -> shape + permutation")
    p.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="shape + permutation -> Morse tree edge list")
    p.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    p.set_defaults(func=_cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_n", None) is not None and args.max_n < 0:
        parser.error("--max-n must be >= 0")
    if getattr(args, "max_k", 0) < 0:
        parser.error("--max-k must be >= 0")
    if getattr(args, "order", 1) < 1:
        parser.error("--order must be >= 1")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
