"""Scenario runners and artifact writers on reduced grids.

The acceptance suite already runs each scenario at full desk scale; these
tests pin the report structure and the small-grid behavior so runner
regressions surface quickly.
"""

import numpy as np
import pytest

from crocco_prandtl import kolmogorov as ko
from crocco_prandtl.config import RunConfig
from crocco_prandtl.errors import ConfigError
from crocco_prandtl.reporting import write_artifacts
from crocco_prandtl.scenarios import (
    ACCEL_T,
    EXACT_T,
    RUNNERS,
    exact_profile_problem,
    favorable_accel_problem,
    perturbed_problems,
    run_scenario,
    validate_scenario,
)
from crocco_prandtl.grids import GridSpec
from crocco_prandtl.solver import check_cfl


def test_exact_profile_small_grid():
    cfg = RunConfig(scenario="exact_profile", nx=16, ny=16, nt=24, eps=1e-2)
    result = run_scenario(cfg)
    assert result.ok
    keys = {e.key for e in result.report.entries}
    assert {"exact_sup_error", "comparison_constant", "bv_seminorm",
            "trace_wall_sup", "weak_residual_sup"} <= keys
    assert result.history is not None
    assert result.grid_label == "16x16x24"
    assert result.eps_label == "0.01"


def test_favorable_accel_small_grid():
    cfg = RunConfig(scenario="favorable_accel", nx=16, ny=16, nt=24, eps=1e-2)
    result = run_scenario(cfg)
    assert result.ok
    worst = {e.key: e.value for e in result.report.entries}["pressure_gradient_worst"]
    assert worst == pytest.approx(-1.0)


def test_viscosity_sweep_small_grid():
    cfg = RunConfig(scenario="viscosity_sweep", nx=16, ny=16, nt=24, eps=1e-2,
                    eps_list=(0.1, 0.03, 0.01))
    result = run_scenario(cfg)
    assert result.ok
    assert [t.name for t in result.tables] == ["sweep"]
    assert len(result.tables[0].rows) == 2


def test_stability_perturb_small_grid():
    cfg = RunConfig(scenario="stability_perturb", nx=16, ny=16, nt=24,
                    eps=1e-2, perturb=1e-3)
    result = run_scenario(cfg)
    assert result.ok
    vals = {e.key: e.value for e in result.report.entries}
    assert vals["identical_data_lhs_max"] == 0.0
    for family in ("initial", "inflow", "suction"):
        assert np.isfinite(vals[f"c6_{family}"])


def test_kolmogorov_checks_runs_analytically():
    cfg = RunConfig(scenario="kolmogorov_checks")
    result = run_scenario(cfg)
    assert result.ok
    assert result.grid_label == "analytic"
    assert result.history is None


def test_oscillation_lab_reduced_grid():
    cfg = RunConfig(scenario="oscillation_lab", nx=32, ny=96, nt=150, lam=2.0)
    result = run_scenario(cfg)
    assert result.ok
    assert {t.name for t in result.tables} == {"oscillation", "density"}
    vals = {e.key: e.value for e in result.report.entries}
    assert 0.0 < vals["oscillation_beta_checkerboard-2"] < 1.0
    assert result.history is not None


def test_perturbed_families_are_compatible_and_small():
    grid = GridSpec(16, 16, 24, L=1.0, T=0.5)
    fams = perturbed_problems(grid, 1e-3)
    assert set(fams) == {"initial", "inflow", "suction"}
    base = perturbed_problems(grid, 0.0)["initial"]
    for name, prob in fams.items():
        gap = max(
            float(np.max(np.abs(prob.w0 - base.w0))),
            float(np.max(np.abs(prob.w1 - base.w1))),
            float(np.max(np.abs(prob.v0 - base.v0))),
        )
        assert 0.0 < gap <= 2e-3, name


def test_validate_scenario_verdicts():
    assert validate_scenario(RunConfig(scenario="exact_profile")).ok
    assert validate_scenario(RunConfig(scenario="favorable_accel")).ok
    assert validate_scenario(RunConfig(scenario="kolmogorov_checks")).ok
    bad = validate_scenario(RunConfig(scenario="oscillation_lab", nx=64, nt=16))
    assert not bad.ok


def test_model_grid_stability_decided_once():
    # validation flags the model grid exactly when the model solver refuses
    # it; these pairs sit on both sides of dt <= 0.9 dx, some at equality
    outcomes = []
    for nx, nt in ((12, 5), (48, 20), (60, 25), (144, 60), (192, 80)):
        report = validate_scenario(RunConfig(scenario="oscillation_lab", nx=nx, ny=8, nt=nt))
        flagged = any("transport stability" in issue.condition for issue in report.issues)
        try:
            ko.solve_model(ko.model_scenarios("constant"), nx=nx, ny=8, nt=nt)
            refused = False
        except ConfigError:
            refused = True
        assert flagged == refused, (nx, nt)
        assert report.ok == (not refused), (nx, nt)
        outcomes.append(refused)
    assert True in outcomes and False in outcomes


def test_strip_grid_stability_decided_once():
    # validation flags a strip grid exactly when the solver's CFL guard
    # refuses it at the largest eps the run marches; expected cfl_x in comments
    cases = (
        ("exact_profile", 53, True),     # 0.907 at eps 1e-3
        ("exact_profile", 54, False),    # 0.890
        ("favorable_accel", 56, False),  # 0.858 at eps 1e-3
        ("viscosity_sweep", 56, True),   # 0.914 at eps 0.1
    )
    for scenario, nt, expect_refused in cases:
        cfg = RunConfig(scenario=scenario, nx=64, ny=8, nt=nt)
        report = validate_scenario(cfg)
        flagged = any("transport stability" in issue.condition for issue in report.issues)
        if scenario == "exact_profile":
            grid = GridSpec(64, 8, nt, T=EXACT_T)
            problem, eps = exact_profile_problem(grid), cfg.eps
        else:
            grid = GridSpec(64, 8, nt, T=ACCEL_T)
            problem = favorable_accel_problem(grid)
            eps = cfg.eps_list[0] if scenario == "viscosity_sweep" else cfg.eps
        try:
            check_cfl(problem, grid, eps)
            refused = False
        except ConfigError:
            refused = True
        assert refused == expect_refused, (scenario, nt)
        assert flagged == refused, (scenario, nt)
        assert report.ok == (not refused), (scenario, nt)


def test_artifact_writer_emits_tables(tmp_path):
    cfg = RunConfig(scenario="viscosity_sweep", nx=16, ny=16, nt=24,
                    eps_list=(0.1, 0.03, 0.01))
    result = run_scenario(cfg)
    paths = write_artifacts(result, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["fields.csv", "report.csv", "report.txt", "sweep.csv"]
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("# crocco-prandtl")
    assert sweep[1] == "eps_hi,eps_lo,l1_diff,ok"
    assert len(sweep) == 4


def test_runner_registry_is_callable():
    assert all(callable(fn) for fn in RUNNERS.values())
