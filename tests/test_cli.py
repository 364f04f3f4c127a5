import json

import pytest

from morsecensus import cli
from morsecensus.recurrence import build_table, load_table


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
    def test_cold_then_warm_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "t.txt")
        code, cold, _ = run(capsys, "census", "--max-n", "4", "--cache", cache)
        assert code == 0
        code, warm, _ = run(capsys, "census", "--max-n", "4", "--cache", cache)
        assert code == 0
        assert cold == warm
        assert load_table(cache).weight_bound == 8

    def test_cache_extends_in_place(self, capsys, tmp_path):
        cache = str(tmp_path / "t.txt")
        run(capsys, "census", "--max-n", "2", "--cache", cache)
        run(capsys, "census", "--max-n", "5", "--cache", cache)
        assert load_table(cache).weight_bound == 10

    def test_env_var_supplies_default_path(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "from_env.txt"
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        code, _, _ = run(capsys, "census", "--max-n", "2")
        assert code == 0
        assert cache.exists()

    def test_malformed_cache_is_hard_error_naming_line(self, capsys, tmp_path):
        cache = tmp_path / "t.txt"
        cache.write_text("morse-htable v1 W=2\n0 0 1\n1 0 bogus\n")
        code, _, err = run(capsys, "census", "--max-n", "1", "--cache", str(cache))
        assert code == 3
        assert "line 3" in err

    def test_unwritable_cache_warns_and_computes(self, capsys, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        cache = str(blocker / "t.txt")  # parent is a file: mkdir/open must fail
        code, out, err = run(capsys, "census", "--max-n", "2", "--cache", cache)
        assert code == 0
        assert "warning" in err and "compute-only" in err
        assert out.splitlines()[-1] == "n=2 h=19/120 g=19"

    def test_locked_cache_warns_and_computes(self, capsys, tmp_path):
        cache = tmp_path / "t.txt"
        (tmp_path / "t.txt.lock").write_text("held")
        code, out, err = run(capsys, "census", "--max-n", "1", "--cache", str(cache))
        assert code == 0
        assert "warning" in err


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

    def test_elliptic(self, capsys, tmp_path):
        cache = str(tmp_path / "t.txt")
        build_table(100, cache_path=cache)
        code, out, _ = run(capsys, "verify", "elliptic", "--cache", cache)
        assert code == 0
        assert out.count("ok elliptic") == 3

    def test_unknown_verifier_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "everything")
        assert err.value.code == 2


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
