import ast
import functools
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morsecensus import analysis, cli, recurrence, series, trees
from morsecensus.series import _binomial_rows

SRC = str(Path(cli.__file__).resolve().parents[1])
BENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
README = Path(__file__).resolve().parents[1] / "README.md"

# T(0,1) = 2/3 in place of 1/3, in the retired v1 cache format
TAMPERED_V1_CACHE = "morse-htable v1 W=2\n0 0 1\n1 0 1/2\n0 1 2/3\n2 0 1/4\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def odd_square_without_middle_term(odd, s, true_square=series._odd_square):
    """series._odd_square without its middle term (k odd): g(n) = 0 for n >= 1."""
    k = len(s)
    return true_square(odd, s) - (odd[k // 2] * s[k // 2] ** 2 if k % 2 else 0)


class TestCensus:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "2")
        assert code == 0
        assert out == "n=0 h=1 g=1\nn=1 h=1/3 g=2\nn=2 h=19/120 g=19\n"

    def test_max_n_zero(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "0")
        assert code == 0
        assert out == "n=0 h=1 g=1\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,h,g"
        assert out.splitlines()[3] == "2,19/120,19"

    def test_json_uses_string_encoded_integers(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        assert records[2] == {"n": 2, "h": "19/120", "g": "19"}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "census", "--max-n", "3")
        _, second, _ = run(capsys, "census", "--max-n", "3")
        assert first == second


def _bench_commands() -> list[tuple[Path, list[str]]]:
    """Every command the benchmark runs, as (reference stdout file, CLI
    arguments), read from the SCALES literal of perfbench/run.py without
    importing it."""
    tree = ast.parse(BENCH_RUN.read_text())
    scales = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "SCALES" for t in node.targets))
    commands = []
    for scale, spec in scales.items():
        reference = BENCH_RUN.parent / "reference" / ("toy" if scale == "toy" else "")
        steps = [*spec["cold"], spec["warm_build"], *spec["warm_pass"]]
        commands += [(reference / name, args) for name, args in steps]
    return commands


class TestInertCache:
    # --cache and $MORSECENSUS_CACHE name no file that any command reads or
    # writes; the flag still parses because the benchmark passes it

    @pytest.mark.parametrize("argv", [("verify", "pde", "--order", "9"), ("oracle", "1")],
                             ids=["pde", "oracle"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_file_is_neither_read_nor_written(self, capsys, tmp_path, monkeypatch,
                                                    argv, via):
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        cache = tmp_path / "t.txt"
        cache.write_text(TAMPERED_V1_CACHE)
        if via == "flag":
            argv += ("--cache", str(cache))
        else:
            monkeypatch.setenv("MORSECENSUS_CACHE", str(cache))
        assert run(capsys, *argv) == (0, expected, "")
        assert cache.read_text() == TAMPERED_V1_CACHE
        assert os.listdir(tmp_path) == ["t.txt"]  # no .lock, no .tmp.<pid>

    def test_benchmark_command_lines_parse_with_cache(self):
        lines = [args for _, args in _bench_commands()]
        assert ["verify", "pde", "--order", "40"] in lines
        for args in lines:
            assert cli.build_parser().parse_args([*args, "--cache", "x"]).cache == "x"


# the 22 command lines of the benchmark hold 19 distinct commands
BENCH_COMMANDS = list(dict.fromkeys((ref, tuple(args)) for ref, args in _bench_commands()))


class TestBenchmarkReference:
    # the benchmark counts an operation as correct when its commands exit 0
    # and print exactly the bytes of these reference files

    @pytest.mark.parametrize("reference,argv", BENCH_COMMANDS,
                             ids=[f"{ref.parent.name}/{ref.name}" for ref, _ in BENCH_COMMANDS])
    def test_stdout_matches_reference_file(self, capsys, reference, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == reference.read_bytes()


def _load_tracer():
    """perfbench/tracer.py as a module, loaded by path: the package's tests
    put nothing of perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  BENCH_RUN.parent / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestBenchmarkContract:
    # a traced benchmark run lays the tracer's wrappers over the package and
    # counts a command that then fails, or prints other bytes, as a failed
    # operation; make_reference.py calls the table the way the last test does

    def test_traced_toy_commands_match_reference(self, capsys):
        toy = [(ref, args) for ref, args in _bench_commands() if ref.parent.name == "toy"]
        assert len(toy) == 11
        tracer = _load_tracer()
        spans = tracer.Tracer()
        undo = tracer.install(spans)
        try:
            for reference, args in toy:
                code, out, _ = run(capsys, *args, "--cache", "x")
                assert code == 0, args
                assert out.encode() == reference.read_bytes(), args
        finally:
            tracer.uninstall(undo)
        recorded = spans.take()
        assert [span for span in recorded if span[tracer.ERROR] is not None] == []
        extras = tracer.span_figures(recorded)["extras"]
        for name in ("recurrence.extend_table", "series.pde_residual",
                     "trees.enumerate_morse_trees"):
            assert extras.get(name), name

    def test_traced_census_records_the_counting_route(self, capsys):
        # the counting loop is a public function of a traced module, so its
        # time is the series layer's, not the CLI's
        tracer = _load_tracer()
        spans = tracer.Tracer()
        undo = tracer.install(spans)
        try:
            code, _, _ = run(capsys, "census", "--max-n", "6")
        finally:
            tracer.uninstall(undo)
        assert code == 0
        counting = [span for span in spans.take() if span[tracer.NAME] == "series.morse_counts"]
        assert len(counting) == 1
        assert counting[0][tracer.ERROR] is None

    def test_reference_cross_check_call_shapes(self):
        rows = json.loads((BENCH_RUN.parent / "reference" / "toy" / "census10.json").read_text())
        table = recurrence.extend_table(None, 20, use_fractions=True)
        for row in rows:
            assert table.normalized_count(row["n"]) == Fraction(row["h"])
            assert table.morse_count(row["n"]) == int(row["g"])


class TestCountingCommandsReadNoTable:
    @pytest.mark.parametrize("argv", [
        ("census", "--max-n", "30"),
        ("table", "--points", "4,6,8,10,30"),
        ("verify", "bounds", "--max-n", "30"),
        ("verify", "conjecture", "--max-n", "30"),
        ("verify", "elliptic"),
    ], ids=["census", "table", "bounds", "conjecture", "elliptic"])
    def test_no_fill_and_no_cache_read(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the two-parameter table was touched")

        monkeypatch.setattr(recurrence, "extend_table", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out
        code, again, _ = run(capsys, *argv, "--cache", "unused.txt")
        assert (code, again) == (0, out)


class TestTable:
    def test_single_point_matches_reference_row(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,h,log_h,delta,delta_over_n"
        assert lines[1].split(",")[4].startswith("-0.634")

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "10,12", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["n"] for r in records] == [10, 12]

    def test_empty_points_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "table", "--points", "")
        assert err.value.code == 2

    def test_zero_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "table", "--points", "0,10")
        assert err.value.code == 2

    def test_non_integer_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "table", "--points", "10,x")
        assert err.value.code == 2
        assert "bad points list '10,x'" in capsys.readouterr().err

    def test_low_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "table", "--points", "10", "--precision", "32")
        assert err.value.code == 2

    def test_precision_changes_no_byte(self, capsys):
        # the rows' 60 working digits print the same 9 as any working precision
        argv = ("table", "--points", "10,20,30,40,50,100")
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        for bits in ("64", "512", "2048"):
            assert run(capsys, *argv, "--precision", bits) == (0, expected, ""), bits

    def test_fit_line_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "4,6,8,10")
        assert code == 0
        assert "a=-0.9022 b=0.4215 c=1.7089" in out.splitlines()[-1]

    def test_text_mode_labels_fit_as_heuristic(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "6,8,10,12")
        assert code == 0
        assert "heuristic" in out


H_10 = "11051004922448599/3193183885731840000"
H_20 = ("6551449328414323488724611389146568121595343/"
        "65336966041335560758144652448126468096000000000")

CENSUS_3_CSV = "n,h,g\n0,1,1\n1,1/3,2\n2,19/120,19\n3,107/1260,428\n"
CENSUS_3_JSON = """\
[
  {
    "n": 0,
    "h": "1",
    "g": "1"
  },
  {
    "n": 1,
    "h": "1/3",
    "g": "2"
  },
  {
    "n": 2,
    "h": "19/120",
    "g": "19"
  },
  {
    "n": 3,
    "h": "107/1260",
    "g": "428"
  }
]
"""
# under four points no fit line follows the rows
TABLE_10_20_TEXT = ("n=10 delta=-6.34178333 delta/n=-0.634178333\n"
                    "n=20 delta=-15.0047386 delta/n=-0.75023693\n")
TABLE_10_20_CSV = ("n,h,log_h,delta,delta_over_n\n"
                   f"10,{H_10},-5.66625241,-6.34178333,-0.634178333\n"
                   f"20,{H_20},-9.20762695,-15.0047386,-0.75023693\n")
TABLE_10_20_JSON = (
    '[\n'
    '  {\n'
    '    "n": 10,\n'
    f'    "h": "{H_10}",\n'
    '    "log_h": -5.66625241,\n'
    '    "delta": -6.34178333,\n'
    '    "delta_over_n": -0.634178333\n'
    '  },\n'
    '  {\n'
    '    "n": 20,\n'
    f'    "h": "{H_20}",\n'
    '    "log_h": -9.20762695,\n'
    '    "delta": -15.0047386,\n'
    '    "delta_over_n": -0.75023693\n'
    '  }\n'
    ']\n'
)


def _readme_example() -> list[tuple[list[str], list[str]]]:
    """The `$ morsecensus ...` lines of the fenced block under README's
    `## Example`, each as (CLI arguments, the lines shown below it)."""
    block = README.read_text().split("## Example\n", 1)[1].split("```")[1]
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ morsecensus "):
            examples.append((line.split()[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def _shows(shown: str, line: str) -> bool:
    """`line` is `shown`, where `<N-character rational>` stands for a p/q of N characters."""
    parts = re.split(r"<(\d+)-character rational>", shown)
    match = re.fullmatch(r"(\d+/\d+)".join(map(re.escape, parts[::2])), line)
    return match is not None and [len(g) for g in match.groups()] == [int(n) for n in parts[1::2]]


class TestReadmeExample:
    def test_commands_print_the_lines_shown(self, capsys):
        examples = _readme_example()
        assert any(argv[0] == "table" for argv, _ in examples)
        for argv, shown in examples:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            lines = out.splitlines()
            assert len(lines) == len(shown), argv
            for expected, line in zip(shown, lines):
                assert _shows(expected, line), (expected, line)


class TestRecordOutput:
    """The stdout of census and table in every format, byte for byte."""

    @pytest.mark.parametrize("argv, expected", [
        (("census", "--max-n", "3", "--format", "csv"), CENSUS_3_CSV),
        (("census", "--max-n", "3", "--format", "json"), CENSUS_3_JSON),
        (("table", "--points", "10,20"), TABLE_10_20_TEXT),
        (("table", "--points", "10,20", "--format", "csv"), TABLE_10_20_CSV),
        (("table", "--points", "10,20", "--format", "json"), TABLE_10_20_JSON),
    ], ids=["census-csv", "census-json", "table-text", "table-csv", "table-json"])
    def test_whole_stdout(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "10,20", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,h,log_h,delta,delta_over_n"
        fields = lines[1].split(",")
        assert fields[0] == "10"
        assert "/" in fields[1]
        assert fields[4].startswith("-0.634")

    def test_json_field_names(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "10,20", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert list(records[0].keys()) == ["n", "h", "log_h", "delta", "delta_over_n"]
        assert isinstance(records[0]["h"], str)
        assert abs(records[0]["delta_over_n"] + 0.634) <= 1e-3


def patch_g3(monkeypatch, value):
    """Make the one-variable route return `value` as g(3)."""
    counts = series.morse_counts

    def patched(max_n):
        g = counts(max_n)
        g[3] = value
        return g

    monkeypatch.setattr(series, "morse_counts", patched)


class TestVerify:
    def test_tan(self, capsys):
        code, out, _ = run(capsys, "verify", "tan", "--max-k", "40")
        assert code == 0 and out.startswith("ok")

    def test_pde(self, capsys):
        code, out, _ = run(capsys, "verify", "pde", "--order", "12")
        assert code == 0 and out.startswith("ok")

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds", "--max-n", "12")
        assert code == 0 and out.startswith("ok")

    def test_conjecture(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--max-n", "12")
        assert code == 0 and out.startswith("ok")

    def test_elliptic(self, capsys):
        code, out, _ = run(capsys, "verify", "elliptic")
        assert code == 0
        assert out == (
            "ok elliptic round trip at 0.05: |error| = 0.000e+00\n"
            "ok elliptic round trip at 0.1: |error| = 1.388e-17\n"
            "ok elliptic round trip at 0.2: |error| = 0.000e+00\n"
        )

    @pytest.mark.parametrize("argv, line", [
        (("pde", "--order", "7"), "FAIL pde residual nonzero, first coefficient: 0 6: 11877/20"),
        (("bounds", "--max-n", "6"), "FAIL upper bound at n=3: h=5350/63"),
        (("conjecture", "--max-n", "6"), "FAIL g < (2n+1)! at n=3: h=5350/63"),
    ], ids=["pde", "bounds", "conjecture"])
    def test_wrong_count_fails(self, capsys, monkeypatch, argv, line):
        # g(3) = 428000 in place of 428, both in the counts of the one-variable
        # route and in the table's fill: there S'(0,3), the 4th entry of
        # level 6, times 1000
        counts = series.morse_counts
        fill = recurrence._fill

        def wrong_g3(max_n):
            g = counts(max_n)
            g[3] *= 1000
            return g

        def wrong_level_6(levels, weight_bound):
            fill(levels, weight_bound)
            levels[6] = [*levels[6][:3], levels[6][3] * 1000]

        monkeypatch.setattr(series, "morse_counts", wrong_g3)
        monkeypatch.setattr(recurrence, "_fill", wrong_level_6)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 1
        assert out == line + "\n"

    @pytest.mark.parametrize("g3, code, line", [
        (34, 0, "ok sandwich + sharper upper estimate + conjecture hold for n <= 6"),
        (33, 1, "FAIL lower bound at n=3: h=11/1680"),
        (5039, 0, "ok sandwich + sharper upper estimate + conjecture hold for n <= 6"),
        (5040, 1, "FAIL conjecture g < (2n+1)! at n=3"),
        (25200, 1, "FAIL conjecture g < (2n+1)! at n=3"),
        (25201, 1, "FAIL upper bound at n=3: h=25201/5040"),
    ], ids=["equal", "below", "under-factorial", "factorial", "catalan", "above-catalan"])
    def test_lower_bound(self, capsys, monkeypatch, g3, code, line):
        # g(3) 2^3 against the tangent number a_3 = 272 = 34 * 2^3: equality
        # passes, one less fails.  g(3) = 7! passes both bounds of the sandwich
        # (h(3) = 1 <= Catalan(3)) and fails only the conjecture, as does
        # g(3) = Catalan(3) 7! = 25200, where the upper bound holds with
        # equality; one more fails the upper bound
        patch_g3(monkeypatch, g3)
        assert run(capsys, "verify", "bounds", "--max-n", "6") == (code, line + "\n", "")

    @pytest.mark.parametrize("g3, code, line", [
        (5039, 0, "ok g(n) < (2n+1)! for 1 <= n <= 6"),
        (5040, 1, "FAIL g < (2n+1)! at n=3: h=1"),
    ], ids=["under-factorial", "factorial"])
    def test_conjecture_is_strict(self, capsys, monkeypatch, g3, code, line):
        # h(3) = 1 fails: the conjectured bound is g(n) < (2n+1)!, not <=
        patch_g3(monkeypatch, g3)
        assert run(capsys, "verify", "conjecture", "--max-n", "6") == (code, line + "\n", "")

    @pytest.mark.parametrize("suite, line", [
        ("bounds", "ok sandwich + sharper upper estimate + conjecture hold for n <= 0"),
        ("conjecture", "ok g(n) < (2n+1)! for 1 <= n <= 0"),
    ], ids=["bounds", "conjecture"])
    def test_index_zero_is_not_held_to_the_conjecture(self, capsys, suite, line):
        # h(0) = 1 exactly: the strict bound starts at n = 1
        assert run(capsys, "verify", suite, "--max-n", "0") == (0, line + "\n", "")

    def test_elliptic_round_trip_off_fails(self, capsys, monkeypatch):
        true_value = analysis.series_value

        def off_by_a_millionth(*args, **kwargs):
            return true_value(*args, **kwargs) + 1e-6

        monkeypatch.setattr(analysis, "series_value", off_by_a_millionth)
        code, out, _ = run(capsys, "verify", "elliptic")
        assert code == 1
        assert out == "FAIL elliptic round trip at 0.05: recovered 0.050001000000000004\n"

    def test_tan_routes_disagree_fails(self, capsys, monkeypatch):
        true_ode = series.ode_comparison_series

        def off_by_one_at_k3(order_index):
            # u_3 + 1, that is a_3 + 2^3 7!
            scaled = true_ode(order_index)
            scaled[3] += 8 * 5040
            return scaled

        monkeypatch.setattr(series, "ode_comparison_series", off_by_one_at_k3)
        code, out, _ = run(capsys, "verify", "tan", "--max-k", "10")
        assert code == 1
        assert out == "FAIL tan routes disagree at k=3: bernoulli=17/2520 ode=2537/2520\n"

    @pytest.mark.parametrize("argv, line", [
        (("tan", "--max-k", "5"), "FAIL tan routes disagree at k=1: bernoulli=1/6 ode=0"),
        (("bounds", "--max-n", "5"), "FAIL lower bound at n=1: h=0"),
    ], ids=["tan", "bounds"])
    def test_odd_square_without_middle_term_fails(self, capsys, monkeypatch, argv, line):
        # the ODE's tangent numbers and the counts' X_m share one odd-binomial
        # square; without its middle term, a_1 and g(1) come out 0
        monkeypatch.setattr(series, "_odd_square", odd_square_without_middle_term)
        assert run(capsys, "verify", *argv) == (1, line + "\n", "")

    def test_unknown_verifier_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "everything")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (("verify", "tan", "--max-k", "-2"), "argument --max-k: must be >= 0"),
        (("verify", "pde", "--order", "-3"), "argument --order: must be >= 1"),
        (("verify", "pde", "--order", "0"), "argument --order: must be >= 1"),
        (("census", "--max-n", "-1"), "argument --max-n: must be >= 0"),
        (("verify", "bounds", "--max-n", "-1"), "argument --max-n: must be >= 0"),
        (("verify", "conjecture", "--max-n", "-1"), "argument --max-n: must be >= 0"),
    ], ids=["max-k-negative", "order-negative", "order-zero", "census-max-n-negative",
            "bounds-max-n-negative", "conjecture-max-n-negative"])
    def test_out_of_range_bound_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(list(argv))
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err

    @pytest.mark.parametrize("argv", [
        ("pde", "--max-n", "80"),
        ("tan", "--max-n", "200"),
        ("tan", "--order", "3"),
        ("elliptic", "--max-n", "5"),
        ("bounds", "--order", "3"),
    ], ids=["pde-max-n", "tan-max-n", "tan-order", "elliptic-max-n", "bounds-order"])
    def test_bound_of_another_suite_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", *argv])
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in out.err

    @pytest.mark.parametrize("suite, line", [
        ("pde", "ok pde residual identically zero at truncation 25 "
                "(retained second exponents <= 24)"),
        ("tan", "ok tangent series via bernoulli == ode solution for k <= 50"),
        ("bounds", "ok sandwich + sharper upper estimate + conjecture hold for n <= 50"),
        ("conjecture", "ok g(n) < (2n+1)! for 1 <= n <= 50"),
    ], ids=["pde", "tan", "bounds", "conjecture"])
    def test_default_bound(self, capsys, suite, line):
        assert run(capsys, "verify", suite) == (0, line + "\n", "")


_MODULES_MARKER = "-- sys.modules --"


@functools.cache
def _modules_after(statements: str) -> frozenset[str]:
    """sys.modules of a fresh interpreter that has run `statements`."""
    child = f"{statements}\nimport sys\nprint({_MODULES_MARKER!r}, *sys.modules, sep='\\n')\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.rpartition(_MODULES_MARKER)[2].split())


def modules_loaded_by(statements: str) -> frozenset[str]:
    """The modules that running `statements` in a fresh interpreter loads beyond
    those of a bare interpreter in the same environment.

    Relative, not absolute: whatever `site` and .pth files load at start-up
    (typing, re or pathlib, in some environments) is in both sets.
    """
    return _modules_after(statements) - _modules_after("pass")


def command_modules(*argv: str) -> frozenset[str]:
    """The modules that one CLI command loads beyond a bare interpreter."""
    return modules_loaded_by("from morsecensus.cli import main\n"
                             f"if main({list(argv)!r}): raise SystemExit('command failed')")


_COUNTING = frozenset({"morsecensus.recurrence", "morsecensus.trees", "morsecensus.analysis",
                       "mpmath", "hashlib", "dataclasses", "json"})


class TestDependencies:
    """Each command imports the layers it runs and no other."""

    @pytest.mark.parametrize("argv, loads, never", [
        (("census", "--max-n", "5"), {"morsecensus.series"},
         _COUNTING | {"fractions", "decimal"}),
        (("verify", "bounds", "--max-n", "20"), {"morsecensus.series"},
         _COUNTING | {"fractions", "decimal"}),
        (("verify", "conjecture", "--max-n", "20"), {"morsecensus.series"},
         _COUNTING | {"fractions", "decimal"}),
        (("verify", "elliptic"), {"morsecensus.analysis"}, {"mpmath"}),
        (("table", "--points", "4,6,8,10"), {"decimal"},
         {"mpmath", "morsecensus.trees", "morsecensus.recurrence"}),
        (("oracle", "3"), {"morsecensus.recurrence", "morsecensus.trees"},
         {"mpmath", "morsecensus.analysis", "dataclasses", "hashlib", "fcntl"}),
        (("verify", "pde"), {"morsecensus.recurrence", "morsecensus.series"},
         {"mpmath", "morsecensus.analysis", "hashlib", "fcntl"}),
        (("verify", "tan", "--max-k", "20"), {"morsecensus.series"},
         {"morsecensus.recurrence", "morsecensus.trees",
          "morsecensus.analysis", "mpmath", "json", "fractions", "decimal"}),
        (("census", "--max-n", "5", "--format", "json"), {"json"}, {"fractions", "decimal"}),
        (("table", "--points", "4,6,8,10", "--format", "json"), {"json"}, set()),
        (("table", "--points", "4,6,8,10"), {"morsecensus.analysis", "fractions"}, {"json"}),
        # only the text mode's fit computes in fractions
        (("table", "--points", "4,6,8,10", "--format", "csv"), {"decimal"}, {"fractions"}),
        (("table", "--points", "4,6,8,10", "--format", "json"), {"decimal"}, {"fractions"}),
    ], ids=["census", "bounds", "conjecture", "elliptic", "table", "oracle", "pde", "tan",
            "census-json", "table-json", "table-text", "table-csv-no-fractions",
            "table-json-no-fractions"])
    def test_command_loads_only_its_layers(self, argv, loads, never, tmp_path):
        if _COUNTING <= never:  # nor when a cache file is named
            argv += ("--cache", str(tmp_path / "t.txt"))
        loaded = command_modules(*argv)
        assert loads <= loaded  # the guard sees the layers the command does run
        assert not never & loaded

    def test_float_commands_load_neither_numpy_nor_scipy(self):
        for argv in (("table", "--points", "4,6,8,10"), ("verify", "elliptic")):
            assert not {"numpy", "scipy"} & command_modules(*argv), argv

    @pytest.mark.parametrize("command, text", [
        ("encode", "n=1\n0-2\n1-2\n2-3\n"),
        ("decode", "(()())\nphi = 2 1 3\n"),
    ])
    def test_codec_loads_no_arithmetic(self, tmp_path, command, text):
        # the trees layer imports nothing from the package
        path = tmp_path / "input.txt"
        path.write_text(text)
        loaded = command_modules(command, str(path))
        assert "morsecensus.trees" in loaded
        assert "morsecensus.exactmath" not in loaded

    def test_package_imports_only_the_standard_library(self):
        # a third-party import in any module, even inside a function, fails here
        for path in sorted(Path(SRC, "morsecensus").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)

    def test_counting_path_loads_no_mpmath(self, tmp_path):
        assert "mpmath" not in modules_loaded_by("import morsecensus.recurrence")
        for argv in (("census", "--max-n", "5"), ("verify", "bounds", "--max-n", "20"),
                     ("verify", "conjecture", "--max-n", "20")):
            loaded = command_modules(*argv, "--cache", str(tmp_path / "t.txt"))
            assert "mpmath" not in loaded, argv


class TestInternalError:
    # a ConsistencyError is a bug in the counting code, not a failed check:
    # exit 4, one line on stderr, nothing on stdout

    def test_pde_fill_off_by_one(self, capsys, monkeypatch):
        true_interpolate = recurrence._interpolate

        def off_at_level_10(values):
            # level 10 is the first to interpolate 5 values
            return true_interpolate([v + (len(values) == 5 and p == 3)
                                     for p, v in enumerate(values)])

        monkeypatch.setattr(recurrence, "_interpolate", off_at_level_10)
        code, out, err = run(capsys, "verify", "pde", "--order", "12")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: D^3 f(0) = 2058170113 is not a multiple of 3!")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_census_binomial_off_by_one(self, capsys, monkeypatch):
        def perturbed():
            for row in _binomial_rows():
                if len(row) == 5:
                    row = row.copy()
                    row[1] += 1
                yield row

        monkeypatch.setattr(series, "_binomial_rows", perturbed)
        code, out, err = run(capsys, "census", "--max-n", "10")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: A_0 at step 4 leaves remainder")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oracle_table_off_by_one(self, capsys, monkeypatch):
        # S'(0, 2) = 2^2 g(2) = 76 raised to 77: CensusTable.morse_count finds the remainder
        table = recurrence.extend_table(None, 4)
        levels = [list(level) for level in table.levels]
        assert levels[4][2] == 76
        levels[4][2] += 1
        monkeypatch.setattr(recurrence, "extend_table",
                            lambda *args, **kwargs: recurrence.CensusTable(4, levels))
        code, out, err = run(capsys, "oracle", "2")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: (2n+1)! * T(0,2) is not an integer")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_table_count_below_one(self, capsys, monkeypatch, fmt):
        # g(n) = 0 for n >= 1, whose logarithm the rows would take
        monkeypatch.setattr(series, "_odd_square", odd_square_without_middle_term)
        code, out, err = run(capsys, "table", "--points", "4,6,8,10", "--format", fmt)
        assert (code, out, err) == (4, "", "internal error: g(4) = 0, but every count is at least 1\n")

    @pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
    def test_other_runtime_errors_propagate(self, capsys, monkeypatch, error):
        # only a ConsistencyError is an internal error: any other exception,
        # a RuntimeError subclass too, leaves main unchanged, not as exit 4
        def fail(max_n):
            raise error

        monkeypatch.setattr(series, "morse_counts", fail)
        with pytest.raises(type(error)) as raised:
            cli.main(["census", "--max-n", "3"])
        assert raised.value is error
        assert capsys.readouterr() == ("", "")


class TestOracle:
    def test_index_one(self, capsys):
        code, out, _ = run(capsys, "oracle", "1")
        assert code == 0
        assert out == "oracle=2 recurrence=2 injective=yes\n"

    def test_index_two(self, capsys):
        code, out, _ = run(capsys, "oracle", "2")
        assert code == 0
        assert "oracle=19 recurrence=19" in out

    def test_budget_refusal_states_budget(self, capsys):
        # the trees layer's budget is the command's: its message, nothing on stdout
        code, out, err = run(capsys, "oracle", "5")
        assert code == 2 and out == ""
        assert "budget is n <= 4" in err

    def test_negative_index_refused(self, capsys):
        code, out, err = run(capsys, "oracle", "-1")
        assert code == 2 and out == ""
        assert "n must be >= 0" in err

    def test_lost_tree_fails(self, capsys, monkeypatch):
        enumerate_all = trees.enumerate_morse_trees

        def one_lost(n):
            found = enumerate_all(n)
            found.pop()
            return found

        monkeypatch.setattr(trees, "enumerate_morse_trees", one_lost)
        assert run(capsys, "oracle", "3") == (1, "oracle=427 recurrence=428 injective=yes\n", "")

    def test_extended_is_an_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["oracle", "4", "--extended"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --extended" in capsys.readouterr().err


class TestCodecs:
    TREE_TEXT = "n=1\n0-2\n1-2\n2-3\n"
    PAIR_TEXT = "(()())\nphi = 2 1 3\n"

    @pytest.mark.parametrize("command, stdin, expected", [
        ("encode", TREE_TEXT, PAIR_TEXT),
        ("decode", PAIR_TEXT, TREE_TEXT),
    ])
    def test_dash_reads_stdin(self, capsys, monkeypatch, command, stdin, expected):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert run(capsys, command, "-") == (0, expected, "")

    def test_encode_golden(self, capsys, tmp_path):
        src = tmp_path / "tree.txt"
        src.write_text(self.TREE_TEXT)
        code, out, _ = run(capsys, "encode", str(src))
        assert code == 0
        assert out == "(()())\nphi = 2 1 3\n"

    def test_decode_round_trip(self, capsys, tmp_path):
        src = tmp_path / "tree.txt"
        src.write_text(self.TREE_TEXT)
        _, pair_text, _ = run(capsys, "encode", str(src))
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(pair_text)
        code, out, _ = run(capsys, "decode", str(pair_file))
        assert code == 0
        assert out == self.TREE_TEXT

    def test_encode_invalid_tree_fails(self, capsys, tmp_path):
        src = tmp_path / "tree.txt"
        src.write_text("n=1\n0-1\n1-2\n2-3\n")
        code, _, err = run(capsys, "encode", str(src))
        assert code == 1
        assert "invalid tree" in err

    def test_decode_outside_image_fails(self, capsys, tmp_path):
        src = tmp_path / "pair.txt"
        src.write_text("(()())\nphi = 3 1 2\n")
        code, _, err = run(capsys, "decode", str(src))
        assert code == 1
        assert "image" in err

    def test_decode_subtrees_out_of_order_fails(self, capsys, tmp_path):
        # the re-labeled shape is a Morse tree, but it encodes as ((()())()) / 1 2 3 4 5
        src = tmp_path / "pair.txt"
        src.write_text("(()(()()))\nphi = 1 5 2 3 4\n")
        code, out, err = run(capsys, "decode", str(src))
        assert code == 1
        assert out == ""
        assert err.startswith("not in the encoding's image:")

    @pytest.mark.parametrize("text, message", [
        ("(()()\nphi = 1 2 3\n", "the shape ends before the stem vertex closes"),
        ("()()\nphi = 1 2 3\n", "trailing characters at position 2 of the shape"),
        ("(()()())\nphi = 1 2 3\n", "a third child opens at position 5 of the shape"),
        ("(())\nphi = 1 2 3\n", "the vertex closed at position 3 of the shape has one child"),
        ("(()())x\nphi = 1 2 3\n", "trailing characters at position 6 of the shape"),
        (")\nphi = 1 2 3\n", "unexpected ')' at position 0 of the shape"),
    ], ids=["unclosed", "two-stems", "three-children", "one-child", "trailing-character", "stray-close"])
    def test_decode_malformed_shape_fails(self, capsys, tmp_path, text, message):
        src = tmp_path / "pair.txt"
        src.write_text(text)
        assert run(capsys, "decode", str(src)) == (1, "", f"invalid pair: {message}\n")

    def test_encode_non_utf8_fails(self, capsys, tmp_path):
        src = tmp_path / "tree.txt"
        src.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "encode", str(src))
        assert code == 1
        assert err.startswith("invalid tree:")

    def test_decode_non_utf8_fails(self, capsys, tmp_path):
        src = tmp_path / "pair.txt"
        src.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "decode", str(src))
        assert code == 1
        assert err.startswith("invalid pair:")

    def test_deep_comb_round_trip(self, capsys, tmp_path):
        # spine nodes 1..n under the root 0, spine end n+1, node i's leaf n+1+i
        n = 1200
        edges = [(0, 1)]
        for i in range(1, n + 1):
            edges += [(i, i + 1), (i, n + 1 + i)]
        tree_text = f"n={n}\n" + "".join(f"{a}-{b}\n" for a, b in sorted(edges))
        src = tmp_path / "tree.txt"
        src.write_text(tree_text)
        code, pair_text, _ = run(capsys, "encode", str(src))
        assert code == 0
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(pair_text)
        code, out, _ = run(capsys, "decode", str(pair_file))
        assert code == 0
        assert out == tree_text

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "encode", str(tmp_path / "absent.txt"))
        assert code == 3


class TestBrokenPipe:
    # stdout on a pipe whose reader has gone, and buffered, as it is unless
    # PYTHONUNBUFFERED is set: the output is still in the buffer when the
    # command returns, and the failed write must surface as exit 3

    @staticmethod
    def run_on_closed_pipe(script, *argv):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, "-c", script, *argv],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)

    @pytest.mark.parametrize("argv", [
        ("census", "--max-n", "5"),
        ("census", "--max-n", "5", "--format", "json"),
        ("verify", "tan", "--max-k", "5"),
    ], ids=["census", "census-json", "tan"])
    def test_closed_reader_is_io_error(self, argv):
        proc = self.run_on_closed_pipe(
            "import sys; from morsecensus.cli import main; sys.exit(main())", *argv)
        assert (proc.returncode, proc.stderr) == (3, b"i/o error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_reader_leaves_no_descriptor_open(self):
        # main runs in process, so a descriptor it opens and leaves open
        # shows in the interpreter's own table after it returns
        proc = self.run_on_closed_pipe(
            "import os, sys\n"
            "from morsecensus.cli import main\n"
            "before = len(os.listdir('/proc/self/fd'))\n"
            "code = main(['census', '--max-n', '5'])\n"
            "print(code, len(os.listdir('/proc/self/fd')) - before, file=sys.stderr)\n")
        assert proc.stderr.splitlines()[-1] == b"3 0"
