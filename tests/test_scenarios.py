"""Scenario runners and artifact writers on reduced grids.

The acceptance suite already runs each scenario at full desk scale; these
tests pin the report structure and the small-grid behavior so runner
regressions surface quickly.
"""

import hashlib
from dataclasses import dataclass, replace
from typing import Callable
from unittest import mock

import numpy as np
import pytest

from crocco_prandtl import kolmogorov as ko
from crocco_prandtl import acceptance, parallel, scenarios
from crocco_prandtl.acceptance import AcceptanceEngine
from crocco_prandtl.cli import main
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
from crocco_prandtl.grids import Check, FieldHistory, GridSpec
from crocco_prandtl.solver import ConvergenceTable, SolveStore, SweepRow, check_cfl


def test_exact_profile_small_grid():
    cfg = RunConfig(scenario="exact_profile", nx=16, ny=16, nt=24, eps=1e-2)
    result = run_scenario(cfg)
    assert result.ok
    keys = {key for key, *_ in result.entries}
    assert {"exact_sup_error", "comparison_constant", "bv_seminorm",
            "trace_wall_sup", "weak_residual_sup"} <= keys
    assert result.history is not None
    assert result.grid_label == "16x16x24"
    assert result.eps_label == "0.01"


def test_favorable_accel_small_grid():
    cfg = RunConfig(scenario="favorable_accel", nx=16, ny=16, nt=24, eps=1e-2)
    result = run_scenario(cfg)
    assert result.ok
    worst = {key: value for key, value, *_ in result.entries}["pressure_gradient_worst"]
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
    vals = {key: value for key, value, *_ in result.entries}
    assert vals["identical_data_lhs_max"] == 0.0
    for family in ("initial", "inflow", "suction"):
        assert np.isfinite(vals[f"c6_{family}"])


def test_kolmogorov_checks_runs_analytically():
    cfg = RunConfig(scenario="kolmogorov_checks")
    result = run_scenario(cfg)
    assert result.ok
    assert result.grid_label == "analytic"
    assert result.history is None


def test_kolmogorov_checks_runs_at_the_admissible_extreme():
    # the largest r and theta just below THETA_MAX: the mean-value pass's
    # quadrature stays on the axes of MEAN_VALUE_FIELD, so no ConfigError
    cfg = RunConfig(scenario="kolmogorov_checks", r=1 / ko.SLAB_BETA, theta=0.999 * ko.THETA_MAX)
    result = run_scenario(cfg)
    assert result.ok
    vals = {key: value for key, value, *_ in result.entries}
    assert vals["mean_value_const_rel_error"] <= scenarios.MEAN_VALUE_CONST_TOL


def _samples_of(field, measure):
    """((t, x, y), values) of every field.sample call that measure() makes."""
    seen, real = [], FieldHistory.sample

    def sample(self, t, x, y):
        values = real(self, t, x, y)
        if self is field:
            seen.append((np.broadcast_arrays(t, x, y), values))
        return values
    with mock.patch.object(FieldHistory, "sample", sample):
        measure()
    return seen


def test_unit_density_control_samples_its_closed_form():
    # the density box and the density slab, every sample exactly 1
    seen = _samples_of(scenarios.UNIT_FIELD, lambda: scenarios.unit_density(0.01))
    assert len(seen) == 2
    assert all(np.all(values == 1.0) for _, values in seen)


def test_linear_control_samples_its_closed_form():
    # each OSC_RADII box and its small box: the extremes at y = -r and y = r,
    # which are all the oscillation table reads, are 1 - y bit for bit.
    # Below y = 0 the cell weight y + 1 rounds, so an interior sample may sit
    # one ulp off 1 - y
    seen = _samples_of(scenarios.LINEAR_FIELD, scenarios.linear_control)
    assert len(seen) == 2 * len(ko.OSC_RADII)
    for (_, _, y), values in seen:
        assert np.max(values) == np.max(1.0 - y) and np.min(values) == np.min(1.0 - y)
        assert np.max(np.abs(values - (1.0 - y))) <= np.spacing(1.0)


@pytest.mark.parametrize("r, theta", [(1.0, 0.01), (1 / ko.SLAB_BETA, 0.999 * ko.THETA_MAX)])
def test_mean_value_control_samples_its_closed_form(r, theta):
    # every slab sample of kolmogorov_checks' mean-value pass is exactly 2.5
    seen, real = [], ko.sample_slabs

    def recording(slabs):
        at_y = real(slabs)

        def recording_at_y(y):
            at_x = at_y(y)
            return lambda x: seen.extend(at_x(x)) or seen[-len(slabs):]
        return recording_at_y
    with mock.patch.object(ko, "sample_slabs", recording), \
            mock.patch.object(parallel, "_usable_cores", return_value=1):
        rep = ko.mean_value([scenarios.MEAN_VALUE_FIELD], ko.CutoffSpec(r=r, theta=theta), nz=3)
    assert len(seen) == 27
    assert all(np.all(w == 2.5) for w in seen)
    assert abs(rep.i0 - 2.5) / 2.5 <= scenarios.MEAN_VALUE_CONST_TOL


def test_oscillation_lab_reduced_grid():
    cfg = RunConfig(scenario="oscillation_lab", nx=32, ny=96, nt=150, lam=2.0)
    result = run_scenario(cfg)
    assert result.ok
    assert {t.name for t in result.tables} == {"oscillation", "density"}
    vals = {key: value for key, value, *_ in result.entries}
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
    lab = validate_scenario(RunConfig(scenario="oscillation_lab"))
    assert lab.ok and lab.c0 is None
    # an unstable model grid is refused when its config is made, not reported
    with pytest.raises(ConfigError, match="transport stability"):
        RunConfig(scenario="oscillation_lab", nx=64, nt=16)


def test_validate_scenario_passes_the_cutoff_checks_through(monkeypatch):
    lemma = dict(ko.verify_lemma(ko.CutoffSpec(r=0.5, theta=0.01)))
    lemma["support"] = Check(3.5e-7, 1e-12, "<=")
    monkeypatch.setattr(ko, "verify_lemma", lambda spec: lemma)
    report = validate_scenario(RunConfig(scenario="kolmogorov_checks", r=0.5))
    assert list(report.checks.values()) == list(lemma.values())
    assert report.summary() == "cutoff property 'support' violated at (0.01, 0.5): value 3.5e-07"


def _refusal(call):
    """The message of the ConfigError call raises, or None if it returns."""
    try:
        call()
    except ConfigError as exc:
        return str(exc)
    return None


def test_model_grid_stability_decided_once():
    # RunConfig refuses the model grid exactly when the model solver refuses
    # it, with its message; these pairs sit on both sides of dt <= 0.9 dx,
    # some at equality
    outcomes = []
    for nx, nt in ((12, 5), (48, 20), (60, 25), (144, 60), (192, 80)):
        made = _refusal(lambda: RunConfig(scenario="oscillation_lab", nx=nx, ny=8, nt=nt))
        refused = _refusal(lambda: ko.solve_model(ko.model_scenarios("constant"),
                                                  nx=nx, ny=8, nt=nt))
        assert made == refused, (nx, nt)
        outcomes.append(refused is not None)
    assert True in outcomes and False in outcomes


def test_strip_grid_stability_decided_once():
    # validation raises exactly when the solver's CFL guard refuses the grid
    # at the largest eps the run marches, with its message; expected cfl_x in
    # comments
    cases = (
        ("exact_profile", 53, True),     # 0.907 at eps 1e-3
        ("exact_profile", 54, False),    # 0.890
        ("favorable_accel", 56, False),  # 0.858 at eps 1e-3
        ("viscosity_sweep", 56, True),   # 0.914 at eps 0.1
    )
    for scenario, nt, expect_refused in cases:
        cfg = RunConfig(scenario=scenario, nx=64, ny=8, nt=nt)
        if scenario == "exact_profile":
            grid = GridSpec(64, 8, nt, T=EXACT_T)
            problem, eps = exact_profile_problem(grid), cfg.eps
        else:
            grid = GridSpec(64, 8, nt, T=ACCEL_T)
            problem = favorable_accel_problem(grid)
            eps = cfg.eps_list[0] if scenario == "viscosity_sweep" else cfg.eps
        refused = _refusal(lambda: check_cfl(problem, eps))
        assert (refused is not None) == expect_refused, (scenario, nt)
        assert _refusal(lambda: validate_scenario(cfg)) == refused, (scenario, nt)
        if refused is None:
            assert validate_scenario(cfg).ok, (scenario, nt)


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


# ---------------------------------------------------------------------------
# shared bounds: a bound that a runner and an acceptance criterion both
# apply is decided once, in the shared measurement.  Each case patches the
# quantity that measurement reads to a value just inside its bound, where
# the runner's verdicts and the criterion must pass, and to one just past
# it, where both must fail.  The criteria run on the session's engine
# (conftest.py); no patch reaches a value its store memoized: _exact_offset
# wraps SolveStore.solve outside the store.  Criterion 6's cases patch only
# what it measures on its 128^3 marches, so their four runs share one set
# of those marches (criterion_6_marches).


def _wrap(m, owner, name, change):
    """Pass every result of owner.name through change(result, *args, **kwargs)."""
    original = getattr(owner, name)
    m.setattr(owner, name, lambda *a, **k: change(original(*a, **k), *a, **k))


def _exact_offset(m, v):
    # every strip run becomes the exact profile 1 - y shifted by v
    _wrap(m, SolveStore, "solve", lambda hist, *a, **k: FieldHistory(
        t=hist.t, x=hist.x, y=hist.y,
        values=np.broadcast_to(1.0 - hist.y + v, hist.values.shape)))


def _sweep_ratio(m, v):
    # a final sweep gap of 1e-3 against a refinement proxy of 1e-3 / v
    rows = [SweepRow(0.1, 0.01, 2e-3), SweepRow(0.01, 0.001, 1e-3)]
    m.setattr(scenarios, "viscosity_sweep", lambda *a: ConvergenceTable(rows))
    m.setattr(scenarios, "grid_refinement_proxy", lambda *a, **k: 1e-3 / v)


def _control_row(rep, v):
    # the first linear-control row moves by v; beta_bar is another row's
    rows = [replace(rep.rows[0], ratio=ko.OSC_THETA_BAR - v)] + rep.rows[1:]
    return replace(rep, rows=rows, beta_bar=max(row.ratio for row in rows))


def _model_oscillation(m, **fields):
    _wrap(m, ko, "oscillation_table", lambda rep, field:
          rep if field is scenarios.LINEAR_FIELD else replace(rep, **fields))


def _constant_model_density(m, v):
    original = ko.density_ratio
    field = FieldHistory(t=[-1.0, 0.0], x=[-1.0, 1.0], y=[-1.0, 1.0], values=np.full((2, 2, 2), v))
    m.setattr(ko, "density_ratio", lambda u, h, normalize=False:
              original(field if normalize else u, h, normalize))


@dataclass
class SharedBound:
    criterion: int
    cfg: RunConfig
    verdict: str          # the runner's verdict name, or its prefix
    patch: Callable       # patch(monkeypatch context, value)
    inside: float
    past: float


EXACT = RunConfig(scenario="exact_profile", nx=16, ny=16, nt=24, eps=1e-2)
SWEEP = RunConfig(scenario="viscosity_sweep", nx=16, ny=16, nt=24, eps_list=(0.1, 0.03, 0.01))
PERTURB = RunConfig(scenario="stability_perturb", nx=16, ny=16, nt=24, eps=1e-2)
KERNEL = RunConfig(scenario="kolmogorov_checks")
LAB = RunConfig(scenario="oscillation_lab", nx=16, ny=48, nt=12)
TINY, ONE_MINUS = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)

SHARED_BOUNDS = {
    "exact": SharedBound(1, EXACT, "exact_solution_reproduced", _exact_offset,
                         scenarios.EXACT_TOL * (1 - 1e-3), scenarios.EXACT_TOL * (1 + 1e-3)),
    "wall_trace": SharedBound(
        5, EXACT, "wall_trace_small",
        lambda m, v: _wrap(m, scenarios, "trace_residual", lambda tr, *a: replace(tr, wall_sup=v)),
        scenarios.WALL_TRACE_TOL * (1 - 1e-3), scenarios.WALL_TRACE_TOL * (1 + 1e-3)),
    "weak_residual": SharedBound(
        5, EXACT, "weak_residual_small",
        lambda m, v: _wrap(m, scenarios, "weak_residual", lambda res, hist, problem: v),
        scenarios.WEAK_RESIDUAL_TOL * (1 - 1e-3), scenarios.WEAK_RESIDUAL_TOL * (1 + 1e-3)),
    "sweep_gap": SharedBound(4, SWEEP, "final_gap_below_grid_error", _sweep_ratio,
                             scenarios.SWEEP_PROXY_FACTOR * (1 - 1e-3),
                             scenarios.SWEEP_PROXY_FACTOR * (1 + 1e-3)),
    "identical_data": SharedBound(
        6, PERTURB, "identical_data_silent",
        lambda m, v: _wrap(m, scenarios, "l1_stability", lambda rep, a, b, pa, pb:
                           replace(rep, lhs=np.full_like(rep.lhs, v)) if pa is pb else rep),
        scenarios.IDENTICAL_TOL * (1 - 1e-3), scenarios.IDENTICAL_TOL * (1 + 1e-3)),
    "c6_finite": SharedBound(
        6, PERTURB, "c6_finite_",
        lambda m, v: _wrap(m, scenarios, "l1_stability", lambda rep, a, b, pa, pb:
                           rep if pa is pb else replace(rep, c6_hat=v)),
        1.0, np.inf),
    "kernel_mass": SharedBound(
        7, KERNEL, "kernel_mass_unit",
        lambda m, v: m.setattr(ko, "normalization", lambda s: 1.0 + v),
        scenarios.KERNEL_MASS_TOL * (1 - 1e-3), scenarios.KERNEL_MASS_TOL * (1 + 1e-3)),
    "dilation": SharedBound(
        7, KERNEL, "dilation_identity",
        lambda m, v: m.setattr(ko, "dilation_defect", lambda z, mu: v),
        scenarios.DILATION_TOL * (1 - 1e-3), scenarios.DILATION_TOL * (1 + 1e-3)),
    "residual_order": SharedBound(
        7, KERNEL, "kernel_residual_second_order",
        lambda m, v: m.setattr(ko, "l0_residual", lambda z, h: h ** v),
        scenarios.KERNEL_ORDER_FLOOR * (1 + 1e-6), scenarios.KERNEL_ORDER_FLOOR * (1 - 1e-6)),
    "unit_density": SharedBound(
        9, LAB, "density_unit_control",
        lambda m, v: _wrap(m, ko, "density_ratio", lambda rep, field, h, normalize=False:
                           rep if normalize else replace(rep, ratio=v)),
        1.0, ONE_MINUS),
    # a check of beta_bar alone, the largest row, misses this defect
    "linear_control_row": SharedBound(
        11, LAB, "oscillation_linear_control_exact",
        lambda m, v: _wrap(m, ko, "oscillation_table", lambda rep, field:
                           _control_row(rep, v) if field is scenarios.LINEAR_FIELD else rep),
        scenarios.LINEAR_CONTROL_TOL * (1 - 1e-3), scenarios.LINEAR_CONTROL_TOL * (1 + 1e-3)),
    # a bound of beta_bar < 1 alone passes a flat field, beta_bar = 0
    "flat_oscillation": SharedBound(
        11, LAB, "oscillation_decays_", lambda m, v: _model_oscillation(m, beta_bar=v),
        TINY, 0.0),
    "oscillation_growth": SharedBound(
        11, LAB, "oscillation_decays_", lambda m, v: _model_oscillation(m, beta_bar=v),
        ONE_MINUS, 1.0),
    "holder_exponent": SharedBound(
        11, LAB, "holder_positive_", lambda m, v: _model_oscillation(m, alpha_holder=v),
        TINY, 0.0),
    # each model run's density measured on the constant field v: at v = 0 the
    # density hypothesis fails, no level is measured, and the check reads NaN
    "density_hypothesis": SharedBound(9, LAB, "density_floor_", _constant_model_density,
                                      1.0, 0.0),
}


@pytest.fixture(scope="module")
def criterion_6_marches():
    """The store criterion 6 is handed for the 128^3 marches it makes in
    stores of its own, one for the module instead of one per call."""
    return SolveStore()


@pytest.mark.parametrize("name", list(SHARED_BOUNDS))
def test_runner_and_criterion_share_each_bound(engine, monkeypatch, criterion_6_marches, name):
    case = SHARED_BOUNDS[name]
    if case.criterion == 6:
        monkeypatch.setattr(acceptance, "SolveStore", lambda: criterion_6_marches)
    # the weak Poincare functional applies no shared bound and costs seconds
    # per oscillation-lab run, so its runs are replaced by a clean report
    # for each coefficient
    monkeypatch.setattr(scenarios, "pinched_poincare",
                        lambda coefs, *a: [ko.PoincareReport(0.0, 0.0, 0.0, 0.0) for _ in coefs])
    for value, inside in ((case.inside, True), (case.past, False)):
        with monkeypatch.context() as m:
            case.patch(m, value)
            verdicts = run_scenario(case.cfg).verdicts
            res = engine.run([case.criterion]).results[0]
        assert all(isinstance(chk, Check) for chk in verdicts.values()), verdicts
        named = [chk.passed for key, chk in verdicts.items() if key.startswith(case.verdict)]
        assert named and named == [inside] * len(named), (value, verdicts)
        assert res.passed == inside, (value, res.line())


def _below_top_minimum(m, v):
    # every strip run with its least node below y = 1 set to v
    def change(hist, *a, **k):
        values = hist.values.copy()
        below = values[:, :, :-1]
        below[np.unravel_index(np.argmin(below), below.shape)] = v
        return FieldHistory(t=hist.t, x=hist.x, y=hist.y, values=values)
    _wrap(m, SolveStore, "solve", change)


def _poincare_ratio(m, v):
    m.setattr(scenarios, "pinched_poincare",
              lambda coefs, *a: [ko.PoincareReport(0.5, 1.0, 1.0, v) for _ in coefs])


# bounds only a runner applies: (config, verdict name or prefix, patch,
# value just inside, value just past); the runner's verdicts must pass at
# the first and fail at the second
RUNNER_BOUNDS = {
    "mean_value_constant": (
        KERNEL, "mean_value_reproduces_constants",
        lambda m, v: m.setattr(ko, "mean_value", lambda *a, **k: ko.MeanValueReport(
            sups=[2.5 * (1.0 + v)], values=np.zeros(0))),
        scenarios.MEAN_VALUE_CONST_TOL * (1 - 1e-3), scenarios.MEAN_VALUE_CONST_TOL * (1 + 1e-3)),
    "log_bound": (
        KERNEL, "log_bound_attained_",
        lambda m, v: m.setattr(ko, "log_subsolution", lambda *a: (np.array([v]), 0.0)),
        scenarios.LOG_BOUND_TOL * (1 - 1e-3), scenarios.LOG_BOUND_TOL * (1 + 1e-3)),
    "positive_below_top": (
        RunConfig(scenario="favorable_accel", nx=16, ny=16, nt=24, eps=1e-2),
        "solution_positive_below_top", _below_top_minimum, TINY, 0.0),
    # a hard violation reads ratio inf; a NaN ratio fails too
    "poincare_violation": (LAB, "poincare_no_violation_", _poincare_ratio,
                           np.finfo(float).max, np.inf),
    "poincare_nan": (LAB, "poincare_no_violation_", _poincare_ratio, 0.0, np.nan),
}


@pytest.mark.parametrize("name", list(RUNNER_BOUNDS))
def test_runner_bound_fails_just_past_it(monkeypatch, name):
    cfg, verdict, patch, inside, past = RUNNER_BOUNDS[name]
    for value, expected in ((inside, True), (past, False)):
        with monkeypatch.context() as m:
            patch(m, value)
            verdicts = run_scenario(cfg).verdicts
        named = [chk.passed for key, chk in verdicts.items() if key.startswith(verdict)]
        assert named and named == [expected] * len(named), (value, verdicts)


def test_a_favorable_run_that_touches_zero_fails_its_positivity_verdict(
        monkeypatch, tmp_path, capsys):
    # the run shifted down so that its least node below y = 1 is 0 and its
    # top row is negative: the estimates' weak quadrature would refuse it
    # (exit 3), so the verdict is recorded first and the estimates skipped
    _wrap(monkeypatch, SolveStore, "solve", lambda hist, *a, **k: FieldHistory(
        t=hist.t, x=hist.x, y=hist.y,
        values=hist.values - np.min(hist.values[:, :, :-1])))
    cfg = tmp_path / "shifted.cfg"
    cfg.write_text("scenario = favorable_accel\nnx = 16\nny = 16\nnt = 24\neps = 1e-2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert report[1:] == ["verdict = fail [solution_positive_below_top]", "overall = FAILED"]
    assert capsys.readouterr().err == ""


def _second_coefficient_nan(m):
    # of each three-coefficient family, the second reads a NaN ratio behind
    # a negligible first one; Python's max would skip it and report 1e-23
    calls = []

    def stand_in(coefs, *a):
        reports = []
        for _ in coefs:
            calls.append(None)
            ratio = np.nan if len(calls) % 3 == 2 else 1e-23
            reports.append(ko.PoincareReport(0.5, ratio, 1.0, ratio))
        return reports
    for module in (scenarios, acceptance):
        m.setattr(module, "pinched_poincare", stand_in)


def test_a_nan_poincare_ratio_behind_a_finite_one_fails(monkeypatch):
    _second_coefficient_nan(monkeypatch)
    res = AcceptanceEngine().criterion_10()
    assert not res.passed
    assert [name for name, chk in res.checks.items() if not chk.passed] == [
        "C", "C_refined", "C_change"]
    assert np.isnan(res.checks["C"].value) and np.isnan(res.checks["C_refined"].value)
    result = run_scenario(LAB)
    bound = [value for key, value, *_ in result.entries if key == "poincare_constant_bound"]
    assert len(bound) == 1 and np.isnan(bound[0])
    assert not result.ok


STRIP_SMALL = (EXACT, RunConfig(scenario="favorable_accel", nx=16, ny=16, nt=24, eps=1e-2),
               SWEEP, PERTURB)


def _strip_artifact_digests(root):
    """sha256 of every artifact of the four strip scenarios, run under root."""
    for cfg in STRIP_SMALL:
        write_artifacts(run_scenario(cfg), root / cfg.scenario)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_strip_artifacts_do_not_follow_the_core_count(tmp_path):
    # the marches, the sweep's refinement proxy and the estimate batteries
    # are split across the cores; every artifact keeps its bytes
    digests = []
    for cores in (1, 2, 3):
        with mock.patch.object(parallel, "_usable_cores", return_value=cores):
            digests.append(_strip_artifact_digests(tmp_path / f"cores{cores}"))
    assert len(digests[0]) == 4 * 3 + 1
    assert digests[0] == digests[1] == digests[2]
