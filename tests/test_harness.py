import json
import tracemalloc

import pytest

import hyperindep as hi
from hyperindep.harness import RunConfig, cli_main, scaling_study


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenAndExact:
    def test_k4_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "k4.nhg"
        code, _, _ = run_cli(
            capsys, "gen", "--model", "complete", "--n", "4", "--sizes", "2",
            "--seed", "1", "--out", str(path),
        )
        assert code == 0
        assert hi.load_nhg(path) == hi.fixture("k4")
        code, out, _ = run_cli(capsys, "exact", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 1 and doc["complete"]

    def test_fixture_output(self, tmp_path, capsys):
        path = tmp_path / "fano.nhg"
        code, _, _ = run_cli(capsys, "gen", "--fixture", "fano", "--out", str(path))
        assert code == 0
        assert hi.load_nhg(path) == hi.fixture("fano")

    def test_gen_with_targets(self, tmp_path, capsys):
        path = tmp_path / "g.nhg"
        code, _, _ = run_cli(
            capsys, "gen", "--model", "linear_random", "--n", "80",
            "--t", "3=1.5", "--seed", "3", "--out", str(path),
        )
        assert code == 0
        h = hi.load_nhg(path)
        assert h.n == 80 and not h.has_two_cycle()


class TestSolve:
    def test_spencer_json(self, tmp_path, capsys):
        path = tmp_path / "k4.nhg"
        hi.save_nhg(hi.fixture("k4"), path)
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "spencer", "--in", str(path),
            "--T", "3", "--trials", "50", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["size"] >= 1
        assert doc["seed"] == 7
        assert doc["schema_version"] == 1
        assert "elapsed_ms" not in doc  # deterministic by default

    def test_solve_bytes_deterministic(self, tmp_path, capsys):
        path = tmp_path / "h.nhg"
        hi.save_nhg(hi.generate(hi.GenSpec("uniform_random", 60, {2: 2.0}, seed=4)), path)
        argv = ["solve", "--algo", "best", "--in", str(path), "--seed", "5", "--trials", "30"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timings_flag_adds_elapsed(self, tmp_path, capsys):
        path = tmp_path / "k4.nhg"
        hi.save_nhg(hi.fixture("k4"), path)
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "greedy", "--in", str(path), "--timings"
        )
        assert code == 0
        assert "elapsed_ms" in json.loads(out)


class TestVerify:
    def test_good_witness(self, tmp_path, capsys):
        path = tmp_path / "p.nhg"
        hi.save_nhg(hi.fixture("petersen"), path)
        wpath = tmp_path / "w.json"
        witness = hi.exact_alpha(hi.fixture("petersen")).witness
        wpath.write_text(json.dumps({"witness": list(witness)}))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path), "--set", str(wpath))
        assert code == 0 and json.loads(out)["verified"]

    def test_bad_witness_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.nhg"
        hi.save_nhg(hi.fixture("petersen"), path)
        wpath = tmp_path / "w.txt"
        wpath.write_text("0 1\n")
        code, out, _ = run_cli(capsys, "verify", "--in", str(path), "--set", str(wpath))
        assert code == 2 and not json.loads(out)["verified"]

    def test_solve_reports_are_self_contained(self, tmp_path, capsys):
        # a report's witness re-verifies against the instance it names
        inst = tmp_path / "inst.nhg"
        hi.save_nhg(hi.generate(hi.GenSpec("mixed_linear", 300, {2: 2.0, 3: 2.0}, seed=8)), inst)
        for algo in ("spencer", "greedy", "nibble", "pipeline", "best"):
            rep_path = tmp_path / f"{algo}.json"
            code, _, _ = run_cli(
                capsys, "solve", "--algo", algo, "--in", str(inst),
                "--seed", "3", "--trials", "20", "--out", str(rep_path),
            )
            assert code == 0
            code, out, _ = run_cli(capsys, "verify", "--in", str(inst), "--set", str(rep_path))
            assert code == 0 and json.loads(out)["verified"]


class TestCycles:
    def test_census_vs_exhaustive_cli(self, tmp_path, capsys):
        path = tmp_path / "f.nhg"
        hi.save_nhg(hi.fixture("fano"), path)
        code, out, _ = run_cli(capsys, "cycles", "--in", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["two_cycles"] == 0
        assert doc["three_cycles"] == {"(3, 3, 3)": 28}
        code, out, _ = run_cli(capsys, "cycles", "--in", str(path), "--exhaustive")
        doc2 = json.loads(out)
        assert doc2["counts"] == {"2": 0, "3": 28, "4": 0}


class TestErrors:
    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.nhg"
        bad.write_text("not a hypergraph\n")
        code, _, err = run_cli(capsys, "exact", "--in", str(bad))
        assert code == 1 and "error:" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--in", "/nonexistent.nhg")
        assert code == 1

    def test_usage_error(self, capsys):
        assert cli_main(["solve", "--algo", "wat", "--in", "x"]) == 1

    @pytest.mark.parametrize("algo", ["greedy", "best"])
    def test_T_for_an_algorithm_without_one_exit_1(self, tmp_path, capsys, algo):
        path = tmp_path / "h.nhg"
        hi.save_nhg(hi.generate(hi.GenSpec("uniform_random", 60, {2: 3.0}, seed=1)), path)
        code, out, err = run_cli(capsys, "solve", "--algo", algo, "--in", str(path), "--T", "0.1")
        assert code == 1 and out == ""
        assert f"--algo {algo} takes no T" in err
        code, _, _ = run_cli(capsys, "solve", "--algo", algo, "--in", str(path), "--trials", "5")
        assert code == 0

    def test_gen_beyond_the_builder_memory_limit_exit_1(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "gen", "--model", "girth5_graph", "--n", "100000", "--t", "2=3"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == "" and "GiB" in err
        assert peak < 1 << 20


class TestStudies:
    def test_scaling_csv_deterministic(self, tmp_path, capsys):
        argv = [
            "study", "scaling", "--k", "2", "--t", "4,8", "--n-mult", "64",
            "--reps", "2", "--seed", "3", "--trials", "20",
        ]
        out1 = run_cli(capsys, *argv, "--csv", str(tmp_path / "a.csv"))
        out2 = run_cli(capsys, *argv, "--csv", str(tmp_path / "b.csv"))
        assert out1[0] == out2[0] == 0
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a == b
        header = a.splitlines()[0].split(",")
        assert header == [
            "model", "n", "k", "t_target", "t_achieved", "seed", "method",
            "size", "comp_spencer", "comp_log", "elapsed_ms",
        ]

    def test_comparators_recomputable(self):
        cfg = RunConfig(k=2, t_grid=(4.0,), n_mult=64, reps=1, seed=9, trials=10)
        rows = scaling_study(cfg)
        for row in rows:
            assert row.comp_spencer == pytest.approx(row.n / (4 * row.t_target))

    def test_rows_sorted_and_both_methods_present(self):
        cfg = RunConfig(k=2, t_grid=(8.0, 4.0), n_mult=64, reps=1, seed=2, trials=10)
        rows = scaling_study(cfg)
        keys = [(r.model, r.n, r.k, r.t_target, r.seed, r.method) for r in rows]
        assert keys == sorted(keys)
        assert {r.method for r in rows} == {"spencer", "nibble"}

    def test_paired_requires_algos(self):
        with pytest.raises(ValueError):
            from hyperindep.harness import paired_study

            paired_study(RunConfig(algos=()))

    def test_paired_cli(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        code, _, _ = run_cli(
            capsys, "study", "paired", "--k", "2", "--t", "4", "--n-mult", "64",
            "--reps", "1", "--seed", "4", "--trials", "10",
            "--algos", "greedy,spencer", "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert {line.split(",")[6] for line in lines[1:]} == {"greedy", "spencer"}


class TestArCli:
    def test_color_validate_find_exactf(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        code, out, _ = run_cli(
            capsys, "ar", "color", "--n", "12", "--k", "2", "--u", "3",
            "--seed", "2", "--out", str(cpath),
        )
        assert code == 0 and json.loads(out)["violations"] == 0
        code, out, _ = run_cli(capsys, "ar", "validate", "--coloring", str(cpath))
        assert code == 0 and json.loads(out)["violations"] == []
        code, out, _ = run_cli(
            capsys, "ar", "find", "--coloring", str(cpath), "--regime", "poly", "--seed", "4",
        )
        assert code == 0
        found = json.loads(out)
        code, out, _ = run_cli(capsys, "ar", "exactf", "--coloring", str(cpath))
        assert code == 0
        assert found["size"] <= json.loads(out)["f_delta"]

    def test_find_log_regime(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        code, _, _ = run_cli(
            capsys, "ar", "color", "--n", "128", "--k", "2", "--u", "32",
            "--seed", "3", "--out", str(cpath),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "ar", "find", "--coloring", str(cpath), "--regime", "log", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["regime"] == "log"
        assert doc["size"] == len(doc["U"])

    def test_sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "ar", "sweep", "--n-grid", "32,64", "--u", "n", "--reps", "2",
            "--trials", "10", "--seed", "1", "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n,s,u_s,regime")
        assert len(lines) == 3
