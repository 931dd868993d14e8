"""Named laboratory experiments and the measurements they share with the
acceptance criteria.

Each runner takes a parsed run configuration and a SolveStore, executes its
solves and measurements, and returns a RunResult holding the numeric
report, optional primary field, and any tabular artifacts.  run_scenario
gives every call a fresh store, so problems and solves are shared within
one run and released when it returns.  Runners are registered in RUNNERS
under the scenario names accepted by the configuration schema.

The strip scenarios build their problem from one table, STRIP_PROBLEMS
(problem builder and end time per scenario), which validate_scenario reads
too, so validation checks the problem a run marches.

The measurement functions between the problem data and the runners
(estimate battery, sweep plus refinement proxy, per-family stability,
kernel identities, density floor, oscillation table, Poincare ratio on the
pinched run) are the single implementation of each quantity; the
acceptance criteria apply their thresholds to the same results.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import kolmogorov as ko
from .crocco import (CroccoData, ValidationIssue, ValidationReport,
                     make_problem, pressure_gradient, validate)
from .errors import ConfigError
from .estimates import (EstimateReport, l1_stability, physical_stability,
                        trace_residual, weak_residual, weighted_dyy_measure,
                        weighted_grad_norms, bv_seminorm, comparison_constant)
from .flows import accelerating_flow, uniform_flow
from .grids import AnalyticField, FieldHistory, GridSpec
from .solver import (SolveStore, check_cfl, grid_refinement_proxy, solve,
                     viscosity_sweep)

EXACT_T = 0.75
ACCEL_T = 0.5


@dataclass
class Table:
    name: str
    columns: List[str]
    rows: List[tuple] = field(default_factory=list)


@dataclass
class RunResult:
    scenario: str
    grid_label: str
    eps_label: str
    report: EstimateReport
    history: Optional[FieldHistory] = None
    tables: List[Table] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.all_pass


# ---------------------------------------------------------------------------
# problem data


def exact_profile_data() -> CroccoData:
    """Shear data whose regularized solution is exactly 1 - y under a
    uniform outer flow with unit wall suction."""
    return CroccoData(
        w0=lambda x, y: (1.0 - y) + 0.0 * x,
        w1=lambda y, t: (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )


def favorable_accel_data(L: float) -> CroccoData:
    """Streamwise-modulated initial shear under the accelerating flow.

    Amplitude 1.5 keeps the profile well clear of the degenerate range so
    the regularization shift (u+eps)^2 - u^2 stays a small relative
    perturbation even at the largest eps in the sweep family.
    """
    return CroccoData(
        w0=lambda x, y: 1.5 * (1.0 - y) * (1.0 + 0.2 * np.sin(np.pi * x / L)),
        w1=lambda y, t: 1.5 * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )


def exact_profile_problem(grid: GridSpec):
    return make_problem(uniform_flow(), grid, exact_profile_data(), label="exact_profile")


def favorable_accel_problem(grid: GridSpec):
    return make_problem(accelerating_flow(), grid, favorable_accel_data(grid.L),
                        label="favorable_accel")


def perturbed_problems(grid: GridSpec, delta: float):
    """Three data perturbation families on the accelerating scenario.

    The initial family perturbs the initial shear with a factor vanishing
    at the inflow face and the inflow family perturbs the inflow shear
    with a factor vanishing at the initial time, so each stays corner
    compatible while exercising exactly one data channel; the suction
    family scales the wall datum.
    """
    L, T = grid.L, grid.T
    base = favorable_accel_data(L)
    initial = CroccoData(
        w0=lambda x, y: base.w0(x, y) * (1.0 + delta * np.sin(np.pi * x / (2.0 * L))),
        w1=base.w1,
        v0=base.v0,
    )
    inflow = CroccoData(
        w0=base.w0,
        w1=lambda y, t: base.w1(y, t) * (1.0 + delta * np.sin(np.pi * t / (2.0 * T))),
        v0=base.v0,
    )
    suction = CroccoData(w0=base.w0, w1=base.w1,
                         v0=lambda x, t: base.v0(x, t) * (1.0 + delta))
    flow = accelerating_flow()
    return {
        "initial": make_problem(flow, grid, initial, label="perturb-initial"),
        "inflow": make_problem(flow, grid, inflow, label="perturb-inflow"),
        "suction": make_problem(flow, grid, suction, label="perturb-suction"),
    }


# each strip scenario's problem builder and end time; the runners and
# validate_scenario build the problem a run marches from this one table
STRIP_PROBLEMS = {
    "exact_profile": (exact_profile_problem, EXACT_T),
    "favorable_accel": (favorable_accel_problem, ACCEL_T),
    "viscosity_sweep": (favorable_accel_problem, ACCEL_T),
    "stability_perturb": (favorable_accel_problem, ACCEL_T),
}


def strip_problem(cfg, store: SolveStore):
    """The problem a strip scenario marches, built through store on the
    configured grid with the scenario's end time."""
    builder, T = STRIP_PROBLEMS[cfg.scenario]
    return store.build(builder, GridSpec(cfg.nx, cfg.ny, cfg.nt, L=cfg.L, T=T))


# ---------------------------------------------------------------------------
# shared measurements: the runners below and the acceptance criteria call
# these same functions and differ only in the thresholds they apply


def estimate_battery(hist: FieldHistory, margin: int = 0) -> dict:
    """The eps-uniform functionals of one run keyed by report name: the
    comparison constant (full domain only), the BV seminorm, the weighted
    gradient norms for alpha 0, 1, 2 and the weighted dyy measure."""
    out = {} if margin else {"comparison_constant": comparison_constant(hist)}
    out["bv_seminorm"] = bv_seminorm(hist, margin=margin)
    for alpha in (0, 1, 2):
        l1, l2 = weighted_grad_norms(hist, alpha, margin=margin)
        out[f"weighted_grad_l1_alpha{alpha}"] = l1
        out[f"weighted_grad_l2_alpha{alpha}"] = l2
    out["weighted_dyy_alpha1"] = weighted_dyy_measure(hist, 1.0, margin=margin)
    return out


def standard_estimates(rep: EstimateReport, hist: FieldHistory, problem,
                       grid_label: str, eps_label: str) -> dict:
    """The estimate battery, its interior variants, traces, and the weak
    residual; returns the full-domain battery plus "traces" and "weak"."""
    out = estimate_battery(hist)
    for key, value in out.items():
        rep.add(key, value, grid_label, eps_label)
    # interior variants (2-cell margin) expose how much the free outflow
    # face contributes to each norm; published, never asserted small
    for key, value in estimate_battery(hist, margin=2).items():
        rep.add(key, value, grid_label, eps_label, "interior")
    rep.add("weak_residual_sup", weak_residual(hist, problem, margin=2),
            grid_label, eps_label, "interior")
    tr = trace_residual(hist, problem)
    out["traces"] = tr
    rep.add("trace_initial_sup", tr.initial_sup, grid_label, eps_label, "t=0")
    rep.add("trace_top_sup", tr.outflow_top_sup, grid_label, eps_label, "y=1")
    rep.add("trace_inflow_sup", tr.inflow_sup, grid_label, eps_label, "x=0")
    rep.add("trace_wall_sup", tr.wall_sup, grid_label, eps_label, "y=0")
    rep.add("trace_wall_l1", tr.wall_l1, grid_label, eps_label, "y=0")
    out["weak"] = weak_residual(hist, problem)
    rep.add("weak_residual_sup", out["weak"], grid_label, eps_label)
    return out


def cauchy_sweep(store: SolveStore, grid: GridSpec, eps_list) -> tuple:
    """Viscosity sweep of the accelerating scenario and the grid-refinement
    proxy at its smallest eps: (ConvergenceTable, proxy)."""
    problem = store.build(favorable_accel_problem, grid)
    table = viscosity_sweep(problem, eps_list, store)
    proxy = grid_refinement_proxy(favorable_accel_problem, grid, eps_list[-1],
                                  store=store)
    return table, proxy


def family_stability(store: SolveStore, grid: GridSpec, eps: float,
                     delta: float) -> dict:
    """L1 stability report of each perturbation family of size delta
    against the accelerating base run, keyed by family."""
    base_problem = store.build(favorable_accel_problem, grid)
    base = store.solve(base_problem, eps)
    return {name: l1_stability(base, store.solve(prob, eps), base_problem, prob)
            for name, prob in store.build(perturbed_problems, grid, delta).items()}


def kernel_identities(seed: int) -> dict:
    """Defects of the fundamental solution: unit mass at s = 0.1 and 1, the
    worst dilation defect over 100 points drawn from seed, and the L0
    residual at h = 1e-3 with its observed order."""
    mass = {s: abs(ko.normalization(s) - 1.0) for s in (0.1, 1.0)}
    rng = np.random.default_rng(seed)
    dilation = max(
        ko.dilation_defect(
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.5)),
            rng.uniform(0.5, 2.0))
        for _ in range(100))
    r1 = abs(ko.l0_residual((0.1, 0.2, 1.0), h=1e-3))
    r2 = abs(ko.l0_residual((0.1, 0.2, 1.0), h=5e-4))
    return {"mass": mass, "dilation": dilation, "residual": r1,
            "order": float(np.log2(r1 / r2))}


def pinched_initial(xq, yq):
    """Initial state touching zero at the origin, used to make the
    logarithmic transform nonvacuous on model runs."""
    return 0.75 * (1.0 - np.cos(np.pi * xq) * np.cos(np.pi * yq / 2.0))


def unit_density(h: float):
    """Density report of the constant field 1, whose ratio must be 1."""
    return ko.density_ratio(AnalyticField(
        lambda t, x, y: np.ones_like(np.asarray(t, float))), r=0.5, h=h)


def density_floor(hist: FieldHistory, h: float) -> tuple:
    """Normalized density report of a model run and whether it holds with
    every level of its h-certificate at or above DENSITY_FLOOR."""
    den = ko.density_ratio(hist, r=0.5, h=h, normalize=True)
    return den, den.verdict is True and all(
        v >= ko.DENSITY_FLOOR for v in den.h_certificate.values())


def linear_control():
    """Oscillation table of the exact linear field 1 - y, whose every ratio
    equals the scale factor 0.3."""
    return ko.oscillation_table(AnalyticField(lambda t, x, y: 1.0 - np.asarray(y, float)))


def model_oscillation(hist: FieldHistory):
    """Oscillation table of a model run on its unit past box."""
    return ko.oscillation_table(hist, domain=(1.0, 1.0, float(hist.t[0])))


def pinched_poincare(coef, grid: tuple, h: float, spec):
    """Weak Poincare report of the reciprocal log transform of a model run
    on grid (nx, ny, nt) from the pinched initial state.  The run is not
    kept."""
    nx, ny, nt = grid
    pinched = ko.solve_model(coef, nx=nx, ny=ny, nt=nt, u0=pinched_initial)
    return ko.weak_poincare_ratio(ko.log_field(pinched, h=h, variant="reciprocal"), spec)


# ---------------------------------------------------------------------------
# runners


def run_exact_profile(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    hist = store.solve(problem, cfg.eps)
    rep = EstimateReport()
    g, e = cfg.grid_label, f"{cfg.eps:g}"
    sup_err = float(np.max(np.abs(hist.values - (1.0 - problem.grid.y[None, None, :]))))
    rep.add("exact_sup_error", sup_err, g, e)
    out = standard_estimates(rep, hist, problem, g, e)
    rep.add("newton_iterations_max", hist.diagnostics.get("newton_iterations_max", 0), g, e)
    rep.verdict("exact_solution_reproduced", sup_err <= 1e-8)
    rep.verdict("wall_trace_small", out["traces"].wall_sup <= 1e-6)
    rep.verdict("weak_residual_small", out["weak"] <= 1e-2)
    return RunResult("exact_profile", g, e, rep, history=hist)


def run_favorable_accel(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    hist = store.solve(problem, cfg.eps)
    rep = EstimateReport()
    g, e = cfg.grid_label, f"{cfg.eps:g}"
    out = standard_estimates(rep, hist, problem, g, e)
    grad = pressure_gradient(problem)
    rep.add("pressure_gradient_worst", grad.worst_value, g, e)
    rep.verdict("pressure_favorable", grad.favorable)
    rep.verdict("comparison_finite", np.isfinite(out["comparison_constant"]))
    rep.verdict("solution_positive_below_top", bool(np.min(hist.values[:, :, :-1]) > 0))
    return RunResult("favorable_accel", g, e, rep, history=hist)


def run_viscosity_sweep(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    table, proxy = cauchy_sweep(store, problem.grid, cfg.eps_list)
    rep = EstimateReport()
    g = cfg.grid_label
    rows = []
    for row in table.rows:
        rep.add("sweep_l1_diff", row.l1_diff, g, f"{row.eps_hi:g}->{row.eps_lo:g}")
        rows.append((row.eps_hi, row.eps_lo, row.l1_diff, int(row.ok)))
    rep.add("grid_refinement_proxy", proxy, g, f"{cfg.eps_list[-1]:g}")
    rep.verdict("sweep_strictly_decreasing", table.strictly_decreasing)
    rep.verdict("final_gap_below_grid_error",
                bool(table.rows[-1].l1_diff < 10.0 * proxy))
    hist = store.solve(problem, cfg.eps_list[-1])
    sweep_table = Table("sweep", ["eps_hi", "eps_lo", "l1_diff", "ok"], rows)
    return RunResult("viscosity_sweep", g, f"{cfg.eps_list[-1]:g}", rep,
                     history=hist, tables=[sweep_table])


def run_stability_perturb(cfg, store: SolveStore) -> RunResult:
    base_problem = strip_problem(cfg, store)
    grid = base_problem.grid
    base = store.solve(base_problem, cfg.eps)
    rep = EstimateReport()
    g, e = cfg.grid_label, f"{cfg.eps:g}"

    # a deliberate second march of the same data, never served from the store
    rerun = solve(base_problem, grid, cfg.eps)
    identical = l1_stability(base, rerun, base_problem, base_problem)
    rep.add("identical_data_lhs_max", float(np.max(identical.lhs)), g, e)
    rep.verdict("identical_data_silent", bool(np.max(identical.lhs) <= 1e-12))

    for name, stab in family_stability(store, grid, cfg.eps, cfg.perturb).items():
        rep.add(f"c6_{name}", stab.c6_hat, g, e)
        rep.add(f"lhs_final_{name}", float(stab.lhs[-1]), g, e)
        rep.verdict(f"c6_finite_{name}", bool(np.isfinite(stab.c6_hat)))

    initial = store.build(perturbed_problems, grid, cfg.perturb)["initial"]
    phys = physical_stability(base, store.solve(initial, cfg.eps), base_problem, initial)
    rep.add("physical_identity_gap", phys.identity_gap, g, e)
    rep.add("c6_physical_initial", phys.c6_hat, g, e)
    return RunResult("stability_perturb", g, e, rep, history=base)


def run_kolmogorov_checks(cfg, store: SolveStore) -> RunResult:
    rep = EstimateReport()
    g, e = "analytic", "0"
    point_defect = abs(ko.gamma0((0.0, 0.0, 1.0)) - np.sqrt(3.0) / (2.0 * np.pi))
    rep.add("kernel_point_defect", point_defect, g, e)
    kid = kernel_identities(cfg.seed)
    for s, defect in kid["mass"].items():
        rep.add(f"kernel_mass_defect_s{s:g}", defect, g, e)
    rep.add("dilation_defect_max", kid["dilation"], g, e)
    rep.add("kernel_residual_h1e-3", kid["residual"], g, e)
    rep.add("kernel_residual_order", kid["order"], g, e)

    spec = ko.CutoffSpec(r=cfg.r, theta=cfg.theta)
    lemma = ko.verify_lemma(spec)
    for chk in lemma.checks:
        rep.add(f"cutoff_{chk.name}_margin", chk.margin, g, e)
        rep.verdict(f"cutoff_{chk.name}", chk.passed)

    const = AnalyticField(lambda t, x, y: np.full_like(np.asarray(t, float), 2.5))
    mv = ko.mean_value(const, spec, nz=3)
    rep.add("mean_value_const_rel_error", abs(mv.i0 - 2.5) / 2.5, g, e)
    rep.add("mean_value_band_leak", mv.band_term_max, g, e)

    for variant in ko.LOG_VARIANTS:
        vals, bound = ko.log_subsolution(np.array([0.0]), cfg.h_level, variant)
        rep.add(f"log_bound_defect_{variant}", abs(vals[0] - bound), g, e)
        rep.verdict(f"log_bound_attained_{variant}", abs(vals[0] - bound) <= 1e-12)

    rep.verdict("kernel_mass_unit", all(d <= 1e-8 for d in kid["mass"].values()))
    rep.verdict("dilation_identity", kid["dilation"] <= 1e-12)
    rep.verdict("kernel_residual_second_order", kid["order"] >= 1.9)
    rep.verdict("mean_value_reproduces_constants", abs(mv.i0 - 2.5) / 2.5 <= 5e-3)
    return RunResult("kolmogorov_checks", g, e, rep)


def run_oscillation_lab(cfg, store: SolveStore) -> RunResult:
    rep = EstimateReport()
    g = cfg.grid_label
    coefs = [
        ko.model_scenarios("constant"),
        ko.model_scenarios("checkerboard", lam=cfg.lam),
        ko.model_scenarios("seeded-random", lam=cfg.lam, seed=cfg.seed),
    ]
    osc_table = Table("oscillation", ["coefficient", "r", "osc_small", "osc_big", "ratio"])
    den_table = Table("density", ["coefficient", "t", "level", "ratio", "ok"])
    primary = None
    spec = ko.CutoffSpec(r=0.8 * cfg.theta, theta=cfg.theta)

    # exact linear control: oscillation ratio equals the scale factor
    ctl = linear_control()
    for row in ctl.rows:
        osc_table.rows.append(("linear_control", row.r, row.osc_small,
                               row.osc_big, row.ratio))
    rep.add("oscillation_linear_control_beta", ctl.beta_bar, g, "0")
    rep.verdict("oscillation_linear_control_exact",
                bool(abs(ctl.beta_bar - 0.3) <= 1e-9))

    # synthetic full-density control
    full = unit_density(cfg.h_level)
    rep.add("density_unit_control_ratio", full.ratio, g, "0")
    rep.verdict("density_unit_control", full.ratio == 1.0)

    # model runs stay out of the store: besides the primary history, one
    # run is alive at a time
    poincare_ratios = []
    for coef in coefs:
        hist = ko.solve_model(coef, nx=cfg.nx, ny=cfg.ny, nt=cfg.nt)
        if coef.name.startswith("checkerboard"):
            primary = hist
        den, den_ok = density_floor(hist, cfg.h_level)
        rep.add(f"density_ratio_{coef.name}", den.ratio, g, "0")
        rep.verdict(f"density_floor_{coef.name}", den_ok)
        for t_row in den.rows:
            den_table.rows.append((coef.name,) + t_row[:3] + (int(t_row[3]),))
        for level, val in den.h_certificate.items():
            den_table.rows.append((coef.name, 0.0, level, val,
                                   int(val >= ko.DENSITY_FLOOR)))

        osc = model_oscillation(hist)
        for row in osc.rows:
            osc_table.rows.append((coef.name, row.r, row.osc_small,
                                   row.osc_big, row.ratio))
        rep.add(f"oscillation_beta_{coef.name}", osc.beta_bar, g, "0")
        rep.add(f"holder_exponent_{coef.name}", osc.alpha_holder, g, "0")
        rep.verdict(f"oscillation_decays_{coef.name}", 0.0 < osc.beta_bar < 1.0)
        rep.verdict(f"holder_positive_{coef.name}", osc.alpha_holder > 0.0)

        poin = pinched_poincare(coef, (cfg.nx, cfg.ny, cfg.nt), cfg.h_level, spec)
        rep.add(f"poincare_i0_{coef.name}", poin.i0, g, "0")
        rep.add(f"poincare_ratio_{coef.name}", poin.ratio, g, "0")
        rep.verdict(f"poincare_no_violation_{coef.name}", not poin.hard_violation)
        poincare_ratios.append(poin.ratio)

    rep.add("poincare_constant_bound", max(poincare_ratios), g, "0")
    return RunResult("oscillation_lab", g, "0", rep, history=primary,
                     tables=[osc_table, den_table])


RUNNERS = {
    "exact_profile": run_exact_profile,
    "favorable_accel": run_favorable_accel,
    "viscosity_sweep": run_viscosity_sweep,
    "stability_perturb": run_stability_perturb,
    "kolmogorov_checks": run_kolmogorov_checks,
    "oscillation_lab": run_oscillation_lab,
}


def run_scenario(cfg) -> RunResult:
    try:
        runner = RUNNERS[cfg.scenario]
    except KeyError:
        raise ConfigError(f"unknown scenario '{cfg.scenario}'") from None
    return runner(cfg, SolveStore())


def _refused(exc: ConfigError) -> ValidationIssue:
    return ValidationIssue(str(exc), (), None)


def validate_scenario(cfg) -> ValidationReport:
    """Admissibility of a configuration's data and parameters, no solves.

    A strip scenario builds the problem its run would march and checks the
    structural hypotheses on it, then the transport stability bound at the
    largest eps the run marches.  The model-operator scenarios check their
    geometric and coefficient parameters, reported through the same issue
    container.  A refused parameter is reported by its error message alone.
    """
    if cfg.scenario in STRIP_PROBLEMS:
        problem = strip_problem(cfg, SolveStore())
        report = validate(problem)
        eps = cfg.eps_list[0] if cfg.scenario == "viscosity_sweep" else cfg.eps
        try:
            check_cfl(problem, problem.grid, eps)
        except ConfigError as exc:
            return ValidationReport(issues=report.issues + (_refused(exc),), c0=report.c0)
        return report

    issues = []
    if cfg.scenario == "kolmogorov_checks":
        try:
            lemma = ko.verify_lemma(ko.CutoffSpec(r=cfg.r, theta=cfg.theta))
            for chk in lemma.checks:
                if not chk.passed:
                    issues.append(ValidationIssue(
                        f"cutoff property '{chk.name}'", (cfg.theta, cfg.r), chk.margin))
        except ConfigError as exc:
            issues.append(_refused(exc))
    elif cfg.scenario == "oscillation_lab":
        for kind in ("constant", "checkerboard", "seeded-random"):
            try:
                ko.model_scenarios(kind, lam=cfg.lam, seed=cfg.seed)
            except ConfigError as exc:
                issues.append(_refused(exc))
        try:
            ko.model_axes(cfg.nx, cfg.nt, ko.MODEL_T0)
        except ConfigError as exc:
            issues.append(_refused(exc))
        try:
            ko.CutoffSpec(r=0.8 * cfg.theta, theta=cfg.theta)
        except ConfigError as exc:
            issues.append(_refused(exc))
    else:
        raise ConfigError(f"unknown scenario '{cfg.scenario}'")
    return ValidationReport(issues=tuple(issues), c0=None)
