import csv
import json

import pytest

from xor3sdp import cli, instances, oracle, sdp

FAST = ["--sweeps", "20", "--n-seeds", "1", "--trials", "3"]


def gen(tmp_path, name="a.mx3", sizes=("3", "3", "3"), constraints="12"):
    out = tmp_path / name
    code = cli.main(
        ["gen", "--family", "planted", "--sizes", *sizes, "--constraints", constraints,
         "--seed", "1", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    return str(out)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestExitCodes:
    def test_gen_solve_experiment_ok(self, tmp_path, capsys):
        path = gen(tmp_path)
        report = tmp_path / "solve.jsonl"
        assert cli.main(["solve", path, "--seed", "1", "--oracle", "--report", str(report), *FAST]) == 0
        config, row = read_jsonl(report)
        assert config["config"]["command"] == "solve"
        assert row["id"] == "a" and row["final"] <= row["opt"] + 1e-9
        assert cli.main(
            ["experiment", "--family", "planted", "--count", "2", "--sizes", "3", "3", "3",
             "--constraints", "12", "--seed", "1", "--report", str(tmp_path / "e.jsonl"), *FAST]
        ) == 0

    @pytest.mark.parametrize(
        "extra", [["--bogus"], ["--jobs", "2"], ["--baseline-trials", "100"]]
    )
    def test_unknown_flag_is_usage_error(self, extra, capsys):
        code = cli.main(["experiment", "--family", "planted", "--seed", "1", *extra])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--bias", "abc"], ["--bias", "1/0"], ["--tol", "xyz"]]
    )
    def test_bad_fraction_is_usage_error(self, tmp_path, extra, capsys):
        code = cli.main(["verify-dist", str(tmp_path / "d.dist"), *extra])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--family", "planted", "--out", "x.mx3"],
            ["compose", "--out", "x.mx3"],
            ["solve", "x.mx3"],
            ["experiment", "--family", "planted"],
        ],
        ids=["gen", "compose", "solve", "experiment"],
    )
    def test_negative_seed_is_usage_error(self, args, capsys):
        assert cli.main([*args, "--seed", "-1"]) == cli.EXIT_USAGE
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_negative_sweeps(self, tmp_path, command, capsys):
        args = ["--seed", "1", "--sweeps", "-3"]
        if command == "solve":
            args = [gen(tmp_path), *args]
        else:
            args = ["--family", "planted", "--count", "1", *args]
        assert cli.main([command, *args]) == cli.EXIT_VALIDATION
        assert "max_sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [["inf"], ["1e308", "1e308"]])
    @pytest.mark.parametrize("command", ["solve", "brute", "fourier"])
    def test_non_finite_weight(self, tmp_path, command, weights, capsys):
        path = tmp_path / "w.mx3"
        lines = [f"{w} 1 1 {1 + k} 0" for k, w in enumerate(weights)]
        path.write_text(f"p mx3 1 1 2 {len(lines)}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        args = [command, str(path)] + (["--seed", "1"] if command == "solve" else [])
        assert cli.main(args) == cli.EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_brute_over_cap(self, tmp_path, capsys):
        # 28 variables in the two smallest blocks
        path = gen(tmp_path, sizes=("14", "14", "14"), constraints="20")
        assert cli.main(["brute", path]) == cli.EXIT_VALIDATION

    def test_brute_34_variables(self, tmp_path, capsys):
        # 18 enumerated variables; the largest block is eliminated
        path = tmp_path / "r.mx3"
        instances.save(instances.generate_random((2, 16, 16), 60, 0), str(path))
        assert cli.main(["brute", str(path)]) == cli.EXIT_OK
        row = [json.loads(line) for line in capsys.readouterr().out.splitlines()][1]
        assert row["optimum"] == oracle.brute_force(instances.load(str(path))).optimum

    @pytest.mark.parametrize("command", ["solve", "brute"])
    def test_missing_file(self, tmp_path, command, capsys):
        args = [command, str(tmp_path / "missing.mx3")]
        if command == "solve":
            args += ["--seed", "1"]
        assert cli.main(args) == cli.EXIT_VALIDATION

    def test_numerical_failure(self, tmp_path, monkeypatch, capsys):
        path = gen(tmp_path)

        def fail(qs, cfg, seeds):
            raise sdp.NumericalError("relaxation value is not finite")

        monkeypatch.setattr("xor3sdp.pipeline.solve_relaxation", fail)
        assert cli.main(["solve", path, "--seed", "1", *FAST]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_broken_invariant(self, tmp_path, monkeypatch, capsys):
        # a rounding that misreports its value breaks the pipeline's cross-check
        path = gen(tmp_path)
        real = sdp.cw_round

        def misreporting(g, q, cfg):
            signs, achieved = real(g, q, cfg)
            return signs, achieved + 0.25

        monkeypatch.setattr("xor3sdp.pipeline.cw_round", misreporting)
        assert cli.main(["solve", path, "--seed", "1", *FAST]) == cli.EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "invariant violated" in err and "cross-check failed" in err


class TestReport:
    def test_jsonl_schema_matches_csv(self, tmp_path, capsys):
        report, table = tmp_path / "e.jsonl", tmp_path / "e.csv"
        code = cli.main(
            ["experiment", "--family", "planted", "--count", "2", "--sizes", "3", "3", "3",
             "--constraints", "12", "--seed", "2", "--oracle", "--report", str(report),
             "--csv", str(table), *FAST]
        )
        assert code == cli.EXIT_OK
        lines = read_jsonl(report)
        assert list(lines[0]) == ["config"]
        assert lines[0]["config"]["command"] == "experiment"
        assert list(lines[-1]) == ["aggregate"]
        assert lines[-1]["aggregate"]["count"] == 2
        rows = lines[1:-1]
        with open(table, encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            columns = reader.fieldnames
            csv_rows = list(reader)
        assert len(rows) == len(csv_rows) == 2
        for row, csv_row in zip(rows, csv_rows):
            assert set(row) == set(columns)
            assert csv_row["per_seed_finals"] == ";".join(map(str, row["per_seed_finals"]))
            assert [float(x) for x in csv_row["per_seed_finals"].split(";")] == row["per_seed_finals"]
            assert csv_row["converged"] == str(row["converged"])
        assert [r["id"] for r in csv_rows] == [r["id"] for r in rows]
