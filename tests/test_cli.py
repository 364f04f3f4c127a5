import fcntl
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morsecensus import cli, inversion, recurrence, series
from morsecensus.recurrence import build_table, load_table, save_table

SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def isolated_cache_env(monkeypatch):
    # keep CLI tests independent of any ambient cache configuration
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "census", "--max-n", "-1")
        assert err.value.code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "census", "--max-n", "3")
        _, second, _ = run(capsys, "census", "--max-n", "3")
        assert first == second


class TestCacheBehavior:
    # `verify pde` and `oracle` read the table through the cache file

    def test_cold_then_warm_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "t.txt")
        code, cold, _ = run(capsys, "verify", "pde", "--order", "9", "--cache", cache)
        assert code == 0
        code, warm, _ = run(capsys, "verify", "pde", "--order", "9", "--cache", cache)
        assert code == 0
        assert cold == warm
        assert load_table(cache).weight_bound == 8

    def test_cache_extends_in_place(self, capsys, tmp_path):
        cache = str(tmp_path / "t.txt")
        run(capsys, "oracle", "1", "--cache", cache)
        assert load_table(cache).weight_bound == 2
        run(capsys, "verify", "pde", "--order", "11", "--cache", cache)
        assert load_table(cache).weight_bound == 10

    def test_env_var_supplies_default_path(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "from_env.txt"
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        code, _, _ = run(capsys, "oracle", "2")
        assert code == 0
        assert cache.exists()

    def test_malformed_cache_is_hard_error_naming_line(self, capsys, tmp_path):
        cache = tmp_path / "t.txt"
        cache.write_text("morse-htable v2 W=2 sha256=" + "0" * 64 + "\n1\nbogus\n6 4\n")
        code, _, err = run(capsys, "verify", "pde", "--order", "2", "--cache", str(cache))
        assert code == 3
        assert "line 3" in err

    def test_tampered_v1_cache_is_refused(self, capsys, tmp_path):
        # T(0,1) = 2/3 in place of 1/3: a v1 file has no digest to catch it
        cache = tmp_path / "t.txt"
        cache.write_text("morse-htable v1 W=2\n0 0 1\n1 0 1/2\n0 1 2/3\n2 0 1/4\n")
        code, out, err = run(capsys, "oracle", "1", "--cache", str(cache))
        assert code == 3
        assert out == ""
        assert err.startswith("cache error: cache line 1: ")

    @pytest.mark.parametrize("content, line_no", [
        (b"morse-htable v2 W=\xff2 sha256=" + b"0" * 64 + b"\n1\n2\n6 4\n", 1),
        (b"morse-htable v2 W=2 sha256=" + b"0" * 64 + b"\n1\n2\n6 \xff4\n", 4),
        (b"morse-htable v1 W=2\n0 0 1\n1 0 1/\xe92\n", 1),
    ], ids=["v2-header", "v2-body-line", "v1-entry"])
    def test_non_utf8_cache_is_hard_error_naming_line(self, capsys, tmp_path, content, line_no):
        cache = tmp_path / "t.txt"
        cache.write_bytes(content)
        code, out, err = run(capsys, "oracle", "0", "--cache", str(cache))
        assert code == 3
        assert out == ""
        assert err.startswith(f"cache error: cache line {line_no}: ")

    def test_unwritable_cache_warns_and_computes(self, capsys, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        cache = str(blocker / "t.txt")  # parent is a file: mkdir/open must fail
        code, out, err = run(capsys, "oracle", "2", "--cache", cache)
        assert code == 0
        assert "warning" in err and "compute-only" in err
        assert out == "oracle=19 recurrence=19 injective=yes\n"

    def test_locked_cache_warns_and_computes(self, capsys, tmp_path):
        cache = tmp_path / "t.txt"
        with open(tmp_path / "t.txt.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            code, out, err = run(capsys, "verify", "pde", "--order", "5", "--cache", str(cache))
        assert code == 0
        assert "warning" in err and "locked" in err
        assert out.startswith("ok pde residual identically zero at truncation 5")


class TestCountingCommandsReadNoTable:
    @pytest.mark.parametrize("argv", [
        ("census", "--max-n", "30"),
        ("table", "--points", "4,6,8,10,30"),
        ("verify", "bounds", "--max-n", "30"),
        ("verify", "conjecture", "--max-n", "30"),
        ("verify", "elliptic"),
    ], ids=["census", "table", "bounds", "conjecture", "elliptic"])
    def test_no_fill_and_no_cache_read(self, capsys, tmp_path, monkeypatch, argv):
        cache = tmp_path / "t.txt"
        build_table(4, cache_path=cache)
        before = cache.read_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("the two-parameter table was touched")

        monkeypatch.setattr(recurrence, "extend_table", refuse)
        monkeypatch.setattr(recurrence, "load_table", refuse)
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out
        code, again, _ = run(capsys, *argv, "--cache", str(cache))
        assert (code, again) == (0, out)
        assert cache.read_bytes() == before


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

    def test_low_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "table", "--points", "10", "--precision", "32")
        assert err.value.code == 2

    def test_fit_line_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "4,6,8,10")
        assert code == 0
        assert "a=-0.9022 b=0.4215 c=1.7089" in out.splitlines()[-1]

    def test_text_mode_labels_fit_as_heuristic(self, capsys):
        code, out, _ = run(capsys, "table", "--points", "6,8,10,12")
        assert code == 0
        assert "heuristic" in out


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
    def test_wrong_count_fails(self, capsys, tmp_path, monkeypatch, argv, line):
        # g(3) = 428000 in place of 428, both in the counts of the one-variable
        # route and in a cache: there S'(0,3), the 4th entry of level 6, times
        # 1000, with the digest recomputed
        counts = inversion.morse_counts

        def wrong_g3(max_n):
            g = counts(max_n)
            g[3] *= 1000
            return g

        monkeypatch.setattr(inversion, "morse_counts", wrong_g3)
        cache = tmp_path / "t.txt"
        save_table(build_table(12), cache)
        lines = cache.read_text().splitlines(keepends=True)
        level = lines[7].split()  # line 8 of the file holds level 6
        level[3] = str(int(level[3]) * 1000)
        lines[7] = " ".join(level) + "\n"
        digest = hashlib.sha256("".join(lines[1:]).encode()).hexdigest()
        lines[0] = f"morse-htable v2 W=12 sha256={digest}\n"
        cache.write_text("".join(lines))
        code, out, _ = run(capsys, "verify", *argv, "--cache", str(cache))
        assert code == 1
        assert out == line + "\n"

    def test_tan_routes_disagree_fails(self, capsys, monkeypatch):
        true_ode = series.ode_comparison_series

        def off_by_one_at_k3(order_index):
            coeffs = list(true_ode(order_index).coeffs)
            coeffs[7] += 1
            return series.Series1(coeffs)

        monkeypatch.setattr(series, "ode_comparison_series", off_by_one_at_k3)
        code, out, _ = run(capsys, "verify", "tan", "--max-k", "10")
        assert code == 1
        assert out == "FAIL tan routes disagree at k=3: bernoulli=17/2520 ode=2537/2520\n"

    def test_unknown_verifier_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "everything")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (("tan", "--max-k", "-2"), "--max-k must be >= 0"),
        (("pde", "--order", "-3"), "--order must be >= 1"),
        (("pde", "--order", "0"), "--order must be >= 1"),
    ], ids=["max-k-negative", "order-negative", "order-zero"])
    def test_out_of_range_bound_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", *argv])
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err


_MODULES_MARKER = "-- sys.modules --"


@functools.cache
def _modules_after(statements: str) -> frozenset[str]:
    """sys.modules of a fresh interpreter that has run `statements`."""
    child = f"{statements}\nimport sys\nprint({_MODULES_MARKER!r}, *sys.modules, sep='\\n')\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(cli.CACHE_ENV_VAR, None)
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
        (("census", "--max-n", "5"), {"morsecensus.inversion"}, _COUNTING),
        (("verify", "bounds", "--max-n", "20"), {"morsecensus.series"}, _COUNTING),
        (("verify", "conjecture", "--max-n", "20"), {"morsecensus.inversion"}, _COUNTING),
        (("verify", "elliptic"), {"morsecensus.analysis"}, {"mpmath"}),
        (("table", "--points", "4,6,8,10"), {"mpmath"},
         {"morsecensus.trees", "morsecensus.recurrence"}),
        (("oracle", "3"), {"morsecensus.recurrence", "morsecensus.trees"},
         {"mpmath", "morsecensus.analysis", "dataclasses"}),
        (("verify", "pde"), {"morsecensus.recurrence", "morsecensus.series"},
         {"mpmath", "morsecensus.analysis"}),
    ], ids=["census", "bounds", "conjecture", "elliptic", "table", "oracle", "pde"])
    def test_command_loads_only_its_layers(self, argv, loads, never, tmp_path):
        if never == _COUNTING:  # nor when a cache file is configured
            argv += ("--cache", str(tmp_path / "t.txt"))
        loaded = command_modules(*argv)
        assert loads <= loaded  # the guard sees the layers the command does run
        assert not never & loaded

    def test_float_commands_load_neither_numpy_nor_scipy(self):
        for argv in (("table", "--points", "4,6,8,10"), ("verify", "elliptic")):
            assert not {"numpy", "scipy"} & command_modules(*argv), argv

    def test_counting_path_loads_no_mpmath(self, tmp_path):
        assert "mpmath" not in modules_loaded_by("import morsecensus.recurrence")
        for argv in (("census", "--max-n", "5"), ("verify", "bounds", "--max-n", "20"),
                     ("verify", "conjecture", "--max-n", "20")):
            loaded = command_modules(*argv, "--cache", str(tmp_path / "t.txt"))
            assert "mpmath" not in loaded, argv


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
        code, _, err = run(capsys, "oracle", "4")
        assert code == 2
        assert "n <= 3" in err and "--extended" in err

    def test_extended_budget_refusal(self, capsys):
        code, _, err = run(capsys, "oracle", "7", "--extended")
        assert code == 2
        assert "n <= 4" in err


class TestCodecs:
    TREE_TEXT = "n=1\n0-2\n1-2\n2-3\n"

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
