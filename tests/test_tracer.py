"""The benchmark tracer in bench/spans.py installs against this package.

`spans.install` wraps package functions by name and binds some of their
parameters, so renaming or deleting one breaks every traced benchmark run.
It rebinds module attributes in place, so it runs in a fresh interpreter
here, never in the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys
import time

sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import spans

tracer = spans.install()
from crocco_prandtl import kolmogorov as ko, scenarios, solver
from crocco_prandtl.grids import GridSpec

start = time.perf_counter()
grid = GridSpec(4, 8, 8)
solver.solve(scenarios.exact_profile_problem(grid), grid, 0.01)
hist = ko.solve_model(ko.model_scenarios("constant"), nx=8, ny=8, nt=4)
spec = ko.CutoffSpec(r=0.008, theta=0.01)
ko.mean_value(hist, spec, nz=2)
ko.mean_value([hist, ko.log_field(hist, 0.01)], spec, nz=2)  # a two-field pass
hist.sample_dy(-0.5, 0.0, 0.0)
wall = time.perf_counter() - start
metrics = spans.layer_metrics(tracer.spans, wall, {
    "wall_s": wall, "import_s": 0.0, "config_s": 0.0, "criterion_s": {}}, 0)
from crocco_prandtl import mms
mms.refinement_study("t")
print(json.dumps({"spans": sorted({s["name"] for s in tracer.spans}),
                  "metrics": {k: v["value"] for k, v in metrics.items()},
                  "mean_value_points": [s["counters"]["points"] for s in tracer.spans
                                        if s["name"] == "kolmogorov.mean_value"]}))
"""


def test_tracer_installs_and_reduces():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert {"solver.solve", "crocco.make_problem", "kolmogorov.solve_model",
            "kolmogorov.mean_value", "grids.sample_dy"} <= set(out["spans"])
    # the tracer rebinds module globals and dict values only, so a study
    # that reached build_case through anything else would escape its span
    assert {"mms.build_case", "mms.refinement_study"} <= set(out["spans"])
    metrics = out["metrics"]
    assert metrics["solver.calls"] == 1.0
    assert metrics["kolmogorov.model.calls"] == 1.0
    assert metrics["grids.sample.points"] == 1.0
    assert metrics["kolmogorov.mean_value.s_per_point"] > 0.0
    # a pass counts every lattice point of every field: nz^3, then 2 nz^3
    assert out["mean_value_points"] == [8, 16]
