"""Named laboratory experiments and the measurements they share with the
acceptance criteria.

Each runner takes a RunConfig, checked when it was made, and a SolveStore,
builds its RunResult first, records each measurement's entries and verdicts
in it, and returns it with its optional primary field and tables.  The
RunResult is the run's one report; reporting renders it.  run_scenario
gives every call a fresh store, so problems and solves are shared within
one run and released when it returns.  Runners are registered in RUNNERS
under the scenario names, and config.SCENARIOS is their keys.

The strip scenarios build their problem from one table, STRIP_PROBLEMS
(problem builder and end time per scenario), which validate_scenario reads
too, so validation checks the problem a run marches.

The measurement functions between the problem data and the runners are
the single implementation of each quantity.  A bound that a runner and an
acceptance criterion both apply is a named constant next to them.  Each
measurement returns its report and a dict of named grids.Check; runners
record the checks as verdicts and criteria take all of them.  The reports
keep numbers only, so a table's ok column is worked out from its row.  The
identical-data check is the stored march against one fresh march.

Three measurements split independent work across the usable cores through
parallel.fork_each, the first part in the calling process:
standard_estimates hands it its three measurements, the weak residual
with the traces before the two batteries, cauchy_sweep runs the sweep's
marches beside the refinement proxy's refined march, and family_stability
hands it one thunk per perturbation family, which marches that family
outside the store and measures it against the stored base march.
identical_data's fresh march never forks: it is made in the calling
process, after the stored one, so it meets whatever state the first march
left behind.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from . import kolmogorov as ko
from .crocco import CroccoData, ValidationReport, make_problem, pressure_gradient, validate
from .estimates import (INTERIOR_MARGIN, l1_stability, physical_stability, trace_residual,
                        weak_residual, weighted_dyy_measure, weighted_grad_norms,
                        bv_seminorm, comparison_constant)
from .flows import accelerating_flow, uniform_flow
from .grids import Check, FieldHistory, GridSpec
from .parallel import fork_each
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
    """The report of one run: (key, value, eps, domain) entries on the run's
    grid, named verdicts (each a Check), the primary field and any tables."""

    scenario: str
    grid_label: str
    eps_label: str
    history: Optional[FieldHistory] = None
    tables: List[Table] = field(default_factory=list)
    entries: List[tuple] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def add(self, key, value, domain="full", eps=None):
        self.entries.append((key, float(value), self.eps_label if eps is None else eps, domain))

    @property
    def ok(self) -> bool:
        return all(chk.passed for chk in self.verdicts.values())


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
# these same functions.  A bound both apply is a constant here, and each
# measurement returns (report, checks), its checks keyed by report name.

EXACT_TOL = 1e-8           # sup distance of the exact-profile run to 1 - y
WALL_TRACE_TOL = 1e-6      # wall trace residual
WEAK_RESIDUAL_TOL = 1e-2   # full-domain weak residual
SWEEP_PROXY_FACTOR = 10.0  # final sweep gap against the refinement proxy
IDENTICAL_TOL = 1e-12      # snapshot L1 distance of two marches of one problem
KERNEL_MASS_TOL = 1e-8     # kernel mass defect
DILATION_TOL = 1e-12       # worst kernel dilation defect
KERNEL_ORDER_FLOOR = 1.9   # least observed order of the L0 residual
LINEAR_CONTROL_TOL = 1e-9  # linear-control ratios against ko.OSC_THETA_BAR
# bounds only the kolmogorov_checks run applies
MEAN_VALUE_CONST_TOL = 5e-3  # relative error of the mean value of a constant
LOG_BOUND_TOL = 1e-12        # log transform at u = 0 against its bound


def exact_error(hist: FieldHistory) -> tuple:
    """Sup distance of an exact-profile run to 1 - y, and its check."""
    err = float(np.max(np.abs(hist.values - (1.0 - hist.y[None, None, :]))))
    return err, {"exact_solution_reproduced": Check(err, EXACT_TOL, "<=")}


def estimate_battery(hist: FieldHistory, margin: int = 0) -> dict:
    """The eps-uniform functionals of one run keyed by report name: the
    comparison constant (full domain only), the BV seminorm, the weighted
    gradient norms for each alpha of GRAD_ALPHAS and the weighted dyy
    measure."""
    out = {} if margin else {"comparison_constant": comparison_constant(hist)}
    out["bv_seminorm"] = bv_seminorm(hist, margin=margin)
    for alpha, (l1, l2) in weighted_grad_norms(hist, margin=margin).items():
        out[f"weighted_grad_l1_alpha{alpha}"] = l1
        out[f"weighted_grad_l2_alpha{alpha}"] = l2
    out["weighted_dyy_alpha1"] = weighted_dyy_measure(hist, margin=margin)
    return out


def weak_identity(hist: FieldHistory, problem) -> tuple:
    """Trace residuals of a run, and the checks on its wall trace and its
    full-domain weak residual."""
    tr = trace_residual(hist, problem)
    return tr, {"wall_trace_small": Check(tr.wall_sup, WALL_TRACE_TOL, "<="),
                "weak_residual_small": Check(weak_residual(hist, problem),
                                             WEAK_RESIDUAL_TOL, "<=")}


def standard_estimates(result: RunResult, hist: FieldHistory, problem) -> tuple:
    """Record the estimate battery on the full and the interior domain, the
    traces, and the full-domain weak residual in result; returns the
    full-domain battery and the checks of weak_identity.  The three
    measurements are split across the usable cores by parallel.fork_each,
    the weak residual and traces first, so on two cores they run in this
    process and the batteries in a worker.  The weak residual has no
    interior variant: its test functions do not vanish on the faces a
    margin cuts, so on the interior box it would measure the cut strip."""
    (tr, checks), out, interior = fork_each([
        partial(weak_identity, hist, problem),
        partial(estimate_battery, hist),
        partial(estimate_battery, hist, margin=INTERIOR_MARGIN)])
    for key, value in out.items():
        result.add(key, value)
    # interior variants expose how much the free outflow face contributes
    # to each norm; published, never asserted small
    for key, value in interior.items():
        result.add(key, value, "interior")
    result.add("trace_initial_sup", tr.initial_sup, "t=0")
    result.add("trace_top_sup", tr.outflow_top_sup, "y=1")
    result.add("trace_inflow_sup", tr.inflow_sup, "x=0")
    result.add("trace_wall_sup", tr.wall_sup, "y=0")
    result.add("trace_wall_l1", tr.wall_l1, "y=0")
    result.add("weak_residual_sup", checks["weak_residual_small"].value)
    return out, checks


def cauchy_sweep(store: SolveStore, grid: GridSpec, eps_list) -> tuple:
    """Viscosity sweep of the accelerating scenario and the grid-refinement
    proxy at its smallest eps, ((ConvergenceTable, proxy), checks): the
    sweep gaps strictly decrease (their largest step is negative), and the
    final gap is below SWEEP_PROXY_FACTOR proxies.

    The march at the smallest eps, which both read, is stored first; then
    the sweep's marches run in this process beside the proxy's refined
    march in a forked worker (parallel.fork_each)."""
    problem = store.build(favorable_accel_problem, grid)
    store.solve(problem, eps_list[-1])
    table, proxy = fork_each([
        partial(viscosity_sweep, problem, eps_list, store),
        partial(grid_refinement_proxy, favorable_accel_problem, grid, eps_list[-1], store)])
    return (table, proxy), {
        "sweep_strictly_decreasing": Check(table.largest_step, 0.0, "<"),
        "final_gap_below_grid_error": Check(table.rows[-1].l1_diff,
                                            SWEEP_PROXY_FACTOR * proxy, "<")}


def identical_data(store: SolveStore, problem, eps: float) -> tuple:
    """Largest snapshot L1 distance between the stored march of problem at
    eps and one fresh march, never served from the store, and its check."""
    fresh = solve(problem, problem.grid, eps)
    lhs = float(np.max(l1_stability(store.solve(problem, eps), fresh, problem, problem).lhs))
    return lhs, {"identical_data_silent": Check(lhs, IDENTICAL_TOL, "<=")}


def family_stability(store: SolveStore, grid: GridSpec, eps: float,
                     delta: float) -> tuple:
    """L1 stability report of each perturbation family of size delta
    against the accelerating base run, keyed by family, and the checks
    that each constant is finite.  The base march goes through store; then
    parallel.fork_each gets one thunk per family, which marches it outside
    the store and measures it against the inherited base, so a process
    holds the base and one family."""
    base_problem = store.build(favorable_accel_problem, grid)
    base = store.solve(base_problem, eps)
    families = store.build(perturbed_problems, grid, delta)

    def measure(prob):
        return l1_stability(base, solve(prob, grid, eps), base_problem, prob)

    stabs = dict(zip(families, fork_each([partial(measure, prob)
                                          for prob in families.values()])))
    return stabs, {f"c6_finite_{name}": Check(stab.c6_hat, np.inf, "<")
                   for name, stab in stabs.items()}


def kernel_identities(seed: int) -> tuple:
    """Defects of the fundamental solution: unit mass at s = 0.1 and 1, the
    worst dilation defect over 100 points drawn from seed, and the L0
    residual at h = 1e-3 with its observed order; and their checks."""
    mass = {s: abs(ko.normalization(s) - 1.0) for s in (0.1, 1.0)}
    rng = np.random.default_rng(seed)
    dilation = float(np.max([
        ko.dilation_defect(
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.5)),
            rng.uniform(0.5, 2.0))
        for _ in range(100)]))
    r1 = abs(ko.l0_residual((0.1, 0.2, 1.0), h=1e-3))
    r2 = abs(ko.l0_residual((0.1, 0.2, 1.0), h=5e-4))
    order = float(np.log2(r1 / r2))
    return {"mass": mass, "dilation": dilation, "residual": r1, "order": order}, {
        "kernel_mass_unit": Check(float(np.max(list(mass.values()))), KERNEL_MASS_TOL, "<="),
        "dilation_identity": Check(dilation, DILATION_TOL, "<="),
        "kernel_residual_second_order": Check(order, KERNEL_ORDER_FLOOR, ">=")}


def pinched_initial(xq, yq):
    """Initial state touching zero at the origin, used to make the
    logarithmic transform nonvacuous on model runs."""
    return 0.75 * (1.0 - np.cos(np.pi * xq) * np.cos(np.pi * yq / 2.0))


# the exact controls, constant in t and x: the unit density and 1 - y on
# the unit box, which trilinear sampling reproduces (1 - y to one ulp below
# y = 0, exactly at each box's extremes), and the mean-value constant on
# |y| <= 5, which holds the pass of every admissible cutoff (|y| <= 4.52,
# |x| <= 0.71, t >= -0.23 at r = 1/SLAB_BETA and theta -> THETA_MAX)
UNIT_FIELD = FieldHistory([-1.0, 0.0], [-1.0, 1.0], [-1.0, 0.0, 1.0], np.ones((2, 2, 3)))
LINEAR_FIELD = FieldHistory([-1.0, 0.0], [-1.0, 1.0], [-1.0, 0.0, 1.0],
                            np.tile([2.0, 1.0, 0.0], (2, 2, 1)))
MEAN_VALUE_FIELD = FieldHistory([-1.0, 0.0], [-1.0, 1.0], [-5.0, 0.0, 5.0], np.full((2, 2, 3), 2.5))


def unit_density(h: float) -> tuple:
    """Density report of the constant field 1 and the check its ratio is 1."""
    den = ko.density_ratio(UNIT_FIELD, h)
    return den, {"density_unit_control": Check(den.ratio, 1.0, "==")}


def density_floor(hist: FieldHistory, h: float) -> tuple:
    """Normalized density report of a model run and the check that its least
    h-certificate level is at or above DENSITY_FLOOR; NaN, which fails, when
    the density hypothesis fails and no level is measured."""
    den = ko.density_ratio(hist, h, normalize=True)
    least = min(den.h_certificate.values(), default=float("nan"))
    return den, {"density_floor": Check(least, ko.DENSITY_FLOOR, ">=")}


def linear_control() -> tuple:
    """Oscillation table of the exact linear field 1 - y, whose every ratio
    equals the scale factor, and the check on its worst row defect."""
    ctl = ko.oscillation_table(LINEAR_FIELD)
    defect = float(np.max([abs(row.ratio - ko.OSC_THETA_BAR) for row in ctl.rows]))
    return ctl, {"oscillation_linear_control_exact": Check(defect, LINEAR_CONTROL_TOL, "<=")}


def model_oscillation(hist: FieldHistory) -> tuple:
    """Oscillation table of a model run on its unit past box, and the
    checks that 0 < beta_bar < 1 and the Holder exponent is positive."""
    osc = ko.oscillation_table(hist)
    return osc, {"oscillation_decays": Check(osc.beta_bar, (0.0, 1.0), "in"),
                 "holder_positive": Check(osc.alpha_holder, 0.0, ">")}


def poincare_cutoff(theta: float):
    """Cutoff of the weak Poincare functional at scale theta."""
    return ko.CutoffSpec(r=0.8 * theta, theta=theta)


def pinched_poincare(coefs, grid: tuple, h: float, spec) -> list:
    """Weak Poincare reports, in order, of the reciprocal log transforms of
    model runs on grid (nx, ny, nt) from the pinched initial state, one per
    coefficient of coefs (a list or a generator), in one mean-value pass.
    Each run is freed once it is transformed, and each transform once the
    functional has taken what it reads, before the next coefficient is
    drawn, so one run or its transform is alive at a time."""
    return ko.weak_poincare_ratio(
        (ko.log_field(ko.solve_model(coef, *grid, u0=pinched_initial), h=h) for coef in coefs),
        spec)


# ---------------------------------------------------------------------------
# runners


def run_exact_profile(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    hist = store.solve(problem, cfg.eps)
    result = RunResult("exact_profile", cfg.grid_label, f"{cfg.eps:g}", history=hist)
    sup_err, exact = exact_error(hist)
    result.add("exact_sup_error", sup_err)
    _, checks = standard_estimates(result, hist, problem)
    result.verdicts.update(exact | checks)
    return result


def run_favorable_accel(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    hist = store.solve(problem, cfg.eps)
    result = RunResult("favorable_accel", cfg.grid_label, f"{cfg.eps:g}", history=hist)
    positive = Check(float(np.min(hist.values[:, :, :-1])), 0.0, ">")
    if not positive.passed:
        # the estimates' weak quadrature refuses a field that is not positive
        result.verdicts["solution_positive_below_top"] = positive
        return result
    out, _ = standard_estimates(result, hist, problem)
    favorable, _ = pressure_gradient(problem)
    result.add("pressure_gradient_worst", favorable.value)
    result.verdicts["pressure_favorable"] = favorable
    result.verdicts["comparison_finite"] = Check(out["comparison_constant"], np.inf, "<")
    result.verdicts["solution_positive_below_top"] = positive
    return result


def run_viscosity_sweep(cfg, store: SolveStore) -> RunResult:
    problem = strip_problem(cfg, store)
    (table, proxy), checks = cauchy_sweep(store, problem.grid, cfg.eps_list)
    sweep = Table("sweep", ["eps_hi", "eps_lo", "l1_diff", "ok"])
    result = RunResult("viscosity_sweep", cfg.grid_label, f"{cfg.eps_list[-1]:g}",
                       tables=[sweep])
    for row in table.rows:
        result.add("sweep_l1_diff", row.l1_diff, eps=f"{row.eps_hi:g}->{row.eps_lo:g}")
        sweep.rows.append((row.eps_hi, row.eps_lo, row.l1_diff, int(not np.isnan(row.l1_diff))))
    result.add("grid_refinement_proxy", proxy)
    result.verdicts.update(checks)
    result.history = store.solve(problem, cfg.eps_list[-1])
    return result


def run_stability_perturb(cfg, store: SolveStore) -> RunResult:
    base_problem = strip_problem(cfg, store)
    grid = base_problem.grid
    # the families first, so the stored base march they are measured against
    # precedes identical_data's fresh one
    stabs, family_checks = family_stability(store, grid, cfg.eps, cfg.perturb)
    base = store.solve(base_problem, cfg.eps)
    result = RunResult("stability_perturb", cfg.grid_label, f"{cfg.eps:g}", history=base)

    ident, checks = identical_data(store, base_problem, cfg.eps)
    result.add("identical_data_lhs_max", ident)
    result.verdicts.update(checks)

    for name, stab in stabs.items():
        result.add(f"c6_{name}", stab.c6_hat)
        result.add(f"lhs_final_{name}", stab.lhs[-1])
    result.verdicts.update(family_checks)

    initial = store.build(perturbed_problems, grid, cfg.perturb)["initial"]
    phys = physical_stability(base, store.solve(initial, cfg.eps), stabs["initial"])
    result.add("physical_identity_gap", phys.identity_gap)
    result.add("c6_physical_initial", phys.c6_hat)
    return result


def run_kolmogorov_checks(cfg, store: SolveStore) -> RunResult:
    result = RunResult("kolmogorov_checks", "analytic", "0")
    point_defect = abs(ko.gamma0((0.0, 0.0, 1.0)) - np.sqrt(3.0) / (2.0 * np.pi))
    result.add("kernel_point_defect", point_defect)
    kid, kid_checks = kernel_identities(cfg.seed)
    for s, defect in kid["mass"].items():
        result.add(f"kernel_mass_defect_s{s:g}", defect)
    result.add("dilation_defect_max", kid["dilation"])
    result.add("kernel_residual_h1e-3", kid["residual"])
    result.add("kernel_residual_order", kid["order"])

    spec = ko.CutoffSpec(r=cfg.r, theta=cfg.theta)
    for name, chk in ko.verify_lemma(spec).items():
        result.add(f"cutoff_{name}_margin", chk.value)
        result.verdicts[f"cutoff_{name}"] = chk

    mv_error = abs(ko.mean_value([MEAN_VALUE_FIELD], spec, nz=3).i0 - 2.5) / 2.5
    result.add("mean_value_const_rel_error", mv_error)

    for variant in ko.LOG_VARIANTS:
        vals, bound = ko.log_subsolution(np.array([0.0]), cfg.h_level, variant)
        defect = abs(vals[0] - bound)
        result.add(f"log_bound_defect_{variant}", defect)
        result.verdicts[f"log_bound_attained_{variant}"] = Check(defect, LOG_BOUND_TOL, "<=")

    result.verdicts.update(kid_checks)
    result.verdicts["mean_value_reproduces_constants"] = Check(
        mv_error, MEAN_VALUE_CONST_TOL, "<=")
    return result


def run_oscillation_lab(cfg, store: SolveStore) -> RunResult:
    osc_table = Table("oscillation", ["coefficient", "r", "osc_small", "osc_big", "ratio"])
    den_table = Table("density", ["coefficient", "t", "level", "ratio", "ok"])
    result = RunResult("oscillation_lab", cfg.grid_label, "0", tables=[osc_table, den_table])
    spec = poincare_cutoff(cfg.theta)

    # exact linear control: every oscillation ratio equals the scale factor
    ctl, checks = linear_control()
    for row in ctl.rows:
        osc_table.rows.append(("linear_control", row.r, row.osc_small,
                               row.osc_big, row.ratio))
    result.add("oscillation_linear_control_beta", ctl.beta_bar)
    result.verdicts.update(checks)

    # synthetic full-density control
    full, checks = unit_density(cfg.h_level)
    result.add("density_unit_control_ratio", full.ratio)
    result.verdicts.update(checks)

    # model runs stay out of the store: besides the kept checkerboard run,
    # one run or pinched transform is alive at a time.  Each coefficient's
    # run is measured and dropped before pinched_poincare makes its pinched
    # rerun, and each rerun is reduced to what the weak Poincare functional
    # reads before the next coefficient's run; the mean-value pass over the
    # three transforms comes last, and the entries follow in run order
    measured = []

    def measured_coefficients():
        for kind in ("constant", "checkerboard", "seeded-random"):
            coef = ko.model_scenarios(kind, lam=cfg.lam, seed=cfg.seed)
            hist = ko.solve_model(coef, nx=cfg.nx, ny=cfg.ny, nt=cfg.nt)
            if coef.name.startswith("checkerboard"):
                result.history = hist
            den, checks = density_floor(hist, cfg.h_level)
            osc, osc_checks = model_oscillation(hist)
            del hist
            measured.append((coef.name, den, osc, checks | osc_checks))
            yield coef

    poins = pinched_poincare(measured_coefficients(), (cfg.nx, cfg.ny, cfg.nt), cfg.h_level, spec)
    for (name, den, osc, checks), poin in zip(measured, poins):
        result.add(f"density_ratio_{name}", den.ratio)
        rows = den.rows + [(0.0, level, val) for level, val in den.h_certificate.items()]
        den_table.rows.extend((name, t, level, val, int(val >= ko.DENSITY_FLOOR))
                              for t, level, val in rows)
        for row in osc.rows:
            osc_table.rows.append((name, row.r, row.osc_small, row.osc_big, row.ratio))
        result.add(f"oscillation_beta_{name}", osc.beta_bar)
        result.add(f"holder_exponent_{name}", osc.alpha_holder)
        result.add(f"poincare_i0_{name}", poin.i0)
        result.add(f"poincare_ratio_{name}", poin.ratio)
        checks["poincare_no_violation"] = Check(poin.ratio, np.inf, "<")
        result.verdicts.update((f"{key}_{name}", chk) for key, chk in checks.items())

    # np.max, unlike max, keeps a NaN ratio in any position
    result.add("poincare_constant_bound", np.max([poin.ratio for poin in poins]))
    return result


RUNNERS = {
    "exact_profile": run_exact_profile,
    "favorable_accel": run_favorable_accel,
    "viscosity_sweep": run_viscosity_sweep,
    "stability_perturb": run_stability_perturb,
    "kolmogorov_checks": run_kolmogorov_checks,
    "oscillation_lab": run_oscillation_lab,
}


def run_scenario(cfg) -> RunResult:
    return RUNNERS[cfg.scenario](cfg, SolveStore())


def validate_scenario(cfg) -> ValidationReport:
    """The paper's structural hypotheses on a configuration's data, no solves.

    A strip scenario builds the problem its run would march, passes the
    solver's transport stability guard at the largest eps the run marches
    (which raises ConfigError, as it does inside solve) and checks the
    hypotheses on it; kolmogorov_checks checks its cutoff's properties.
    Every other input a run refuses was refused when the config was made.
    """
    if cfg.scenario in STRIP_PROBLEMS:
        problem = strip_problem(cfg, SolveStore())
        eps = cfg.eps_list[0] if cfg.scenario == "viscosity_sweep" else cfg.eps
        check_cfl(problem, eps)
        return validate(problem)
    checks = {}
    if cfg.scenario == "kolmogorov_checks":
        checks = {f"cutoff property '{name}'": chk for name, chk in
                  ko.verify_lemma(ko.CutoffSpec(r=cfg.r, theta=cfg.theta)).items()}
    return ValidationReport(checks=checks, where=dict.fromkeys(checks, (cfg.theta, cfg.r)),
                            c0=None)
