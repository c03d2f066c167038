"""Self-test of the benchmark on its tiny workload.

Run from the repository root: python3 -m pytest -q benchmark
"""

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import TRACED, Tracer  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, kind):
    out = run("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(kind)
    lines = out.stdout.splitlines()
    for name, unit in printed.items():
        assert any(
            line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines
        ), name


def test_trace_run_keeps_fingerprints_and_restores_names():
    out = run("--workload", "tiny", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    assert "passes agree: True" in out.stdout

    def current():
        return [getattr(importlib.import_module(m), attr) for m, attr, _ in TRACED]

    before = current()
    with Tracer():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_traced_passes_alternate_with_untraced(monkeypatch):
    import run

    order = []

    class Marking:
        active = False

        def __enter__(self):
            Marking.active = True

        def __exit__(self, *exc):
            Marking.active = False

    def fake_pass(rows, errors, probe):
        order.append("T" if Marking.active else "U")
        return [run.Solve(None, 0.125, 0.005, None, None, None)]  # one row in 1/8 s

    monkeypatch.setattr(run, "solve_pass", fake_pass)
    untraced, traced = run.run_passes([], 1.0, (), None, Marking())
    assert "".join(order) == "UT" * 4
    assert (len(untraced), len(traced)) == (4, 4)


def test_missing_name_is_reported_absent():
    with Tracer(TRACED + (("xor3sdp.pipeline", "no_such_stage", "pipeline.none"),)) as t:
        pass
    assert t.absent == ["xor3sdp.pipeline.no_such_stage"]


def test_counter_that_no_longer_fits_is_skipped(monkeypatch):
    fake = types.ModuleType("fake_stage")
    fake.solve_relaxation = lambda q, cfg: object()  # result has no sweep_values
    monkeypatch.setitem(sys.modules, "fake_stage", fake)
    with Tracer((("fake_stage", "solve_relaxation", "sdp.solve_relaxation"),)) as t:
        fake.solve_relaxation(None, None)
    assert t.uncounted == {"sdp.solve_relaxation"}
    assert t.calls() == {"sdp.solve_relaxation": 1}
    assert t.self_times()["sdp.solve_relaxation"] >= 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
