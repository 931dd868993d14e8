"""Harness self-test: run `run.py` on a 16^3 exact_profile workload.

Run from the repository root with

    python3 -m pytest -q bench/selftest.py

It checks that every metric declared in BENCHMARK.json is emitted with its
unit, that recorded spans nest, that self times are computed from direct
children, and that `run.py` refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The names README.md documents; BENCHMARK.json may add to them.
END_TO_END_PRINTED = ("wall_s", "setup_s", "peak_rss_mb", "artifact_mb", "failed_frac")
LAYER_NAMES = (
    ["solver.calls", "solver.busy_s", "solver.step_ms.64", "solver.step_ms.128",
     "solver.newton_iters", "solver.unique_ratio",
     "crocco.calls", "crocco.busy_s", "crocco.problem_mb",
     "estimates.busy_s", "estimates.weak_residual_s", "mms.self_s",
     "kolmogorov.model.calls", "kolmogorov.model.busy_s",
     "kolmogorov.model.step_ms.48x192", "kolmogorov.mean_value.busy_s",
     "kolmogorov.mean_value.s_per_point", "kolmogorov.poincare.self_s",
     "kolmogorov.density.busy_s", "kolmogorov.oscillation.busy_s",
     "kolmogorov.analytic.busy_s",
     "grids.sample.calls", "grids.sample.points", "grids.sample.busy_s",
     "grids.sample.points_per_s",
     "reporting.fields.busy_s", "reporting.fields.mb", "reporting.fields.mb_per_s",
     "reporting.other.busy_s", "scenarios.self_s",
     "setup.import_s", "setup.config_s",
     "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
     "trace.unattributed_s"]
    + [f"reporting.{s}.write_s" for s in spans.SCENARIOS]
    + [f"scenarios.{s}.run_s" for s in spans.SCENARIOS]
    + [f"acceptance.criterion_{n}_s" for n in spans.CRITERIA]
)


def _run(trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_metrics_emitted_with_units():
    proc = _run(0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in END_TO_END_PRINTED:
        assert any(line.startswith(f"smoke {name} = ") for line in lines), name


def test_layer_metrics_emitted_and_spans_nest():
    proc = _run(1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")
    assert set(LAYER_NAMES) <= set(emitted)
    assert result["metrics"]["solver.calls"]["value"] == 1
    assert result["metrics"]["reporting.fields.mb"]["value"] > 0

    recorded = json.loads((ROOT / ".bench_out" / "results" / "smoke-seed0.spans.json").read_text())
    names = {s["name"] for s in recorded}
    assert {"scenarios.run_scenario", "solver.solve", "crocco.make_problem",
            "estimates.weak_residual", "reporting.write_fields_csv"} <= names
    nested = 0
    for span in recorded:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = recorded[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            nested += 1
    assert nested > 0


def test_self_time_subtracts_direct_children_only():
    recorded = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 4.0},
        {"parent": 1, "start": 2.0, "end": 3.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
