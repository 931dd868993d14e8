"""Acceptance checklist.

Twelve numbered criteria, each measuring a pinned quantitative surrogate
at desk scale.  A store keeps only what a second reader in its run takes:
the engine's SolveStore holds what criteria share, the 64^3 problems and
strip marches of criteria 1 and 3-6 and the model runs of criteria 9 and
11, and every 128^3 march is freed when the criterion that reads it
returns.

run() splits the requested criteria into contiguous chunks, one per usable
core, through parallel.fork_map: this process runs the first chunk against
the engine's store and a forked worker runs each further chunk against its
own copy, discarded once its results are back.  So criteria reuse each
other's shared fields within a chunk, verdicts and details are identical
to a 1-core run, and each criterion's seconds are measured in the process
that ran it.  The measurements themselves are the functions the scenario
runners call, and a bound a runner applies too lives with the measurement
in scenarios, which returns its verdicts; a criterion takes all of them,
adds the thresholds only it applies, and formats its detail from the same
constants.  Two checks bypass the store on purpose: criterion 6 compares
its stored march with one fresh march of the same data, and criterion 12
reruns the full artifact bundle, each scenario with its own fresh store.
"""

import filecmp
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

from . import kolmogorov as ko
from ._version import __version__
from .config import SCENARIOS, RunConfig
from .errors import ConfigError, CroccoError
from .estimates import uniformity_spread, weak_residual
from .grids import GridSpec
from .parallel import fork_map
from .scenarios import (ACCEL_T, DILATION_TOL, EXACT_T, EXACT_TOL,
                        IDENTICAL_TOL, KERNEL_MASS_TOL, KERNEL_ORDER_FLOOR,
                        SWEEP_PROXY_FACTOR, WALL_TRACE_TOL, WEAK_RESIDUAL_TOL,
                        cauchy_sweep, density_floor, estimate_battery,
                        exact_error, exact_profile_problem, family_stability,
                        favorable_accel_problem, identical_data,
                        kernel_identities, linear_control, model_oscillation,
                        pinched_poincare, poincare_cutoff, unit_density,
                        weak_identity)
from .solver import SolveStore, solve

EPS_FAMILY = (1e-1, 1e-2, 1e-3, 1e-4)
SWEEP_LIST = (0.1, 0.03, 0.01, 0.003, 0.001)
MODEL_GRID_FINE = tuple(2 * n for n in ko.MODEL_GRID)
ROUGH_COEFS = (("checkerboard", 2.0, 0), ("seeded-random", 2.0, 0), ("seeded-random", 4.0, 1))
THETA_DEFAULT = 0.01
# least convergence order of each manufactured-solution study (mms.STUDIES)
MMS_FLOORS = {"x": 0.9, "y": 1.9, "t": 0.9, "coupled": 0.9}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def __post_init__(self):
        # a verdict built from numpy comparisons is a np.bool_
        self.passed = bool(self.passed)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{tag}] {self.name}: "
                f"{self.detail} ({self.seconds:.1f} s)")


@dataclass
class AcceptanceReport:
    results: List[CriterionResult]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append(f"acceptance = {'PASSED' if self.all_pass else 'FAILED'}")
        return "\n".join(lines)


def artifact_bundle():
    """One RunConfig per scenario at its shipped desk-scale settings."""
    return tuple(RunConfig(s, *ko.MODEL_GRID) if s == "oscillation_lab" else RunConfig(s)
                 for s in SCENARIOS)


def _determinism(ra: Path, rb: Path, files_a, files_b) -> CriterionResult:
    """Criterion 12's verdict on two artifact trees and their sorted relative
    paths: the same paths, and each file's bytes equal, compared block by
    block (filecmp), so neither copy is held whole."""
    if files_a != files_b:
        return CriterionResult(12, "determinism", False,
                               "artifact sets differ between invocations")
    mismatched = [str(rel) for rel in files_a
                  if not filecmp.cmp(ra / rel, rb / rel, shallow=False)]
    passed = not mismatched
    detail = (f"{len(files_a)} artifacts byte-identical across two invocations"
              if passed else f"byte mismatch in {mismatched}")
    return CriterionResult(12, "determinism", passed, detail)


def _cube(n: int, T: float) -> GridSpec:
    return GridSpec(n, n, n, L=1.0, T=T)


def _model_history(kind: str, lam: float, seed: int):
    return ko.solve_model(ko.model_scenarios(kind, lam=lam, seed=seed), *ko.MODEL_GRID)


class AcceptanceEngine:
    """Runs the numbered criteria against one solve store, which keeps the
    strip marches and model runs that criteria share."""

    def __init__(self):
        self.store = SolveStore()

    def criterion_1(self) -> CriterionResult:
        problem = self.store.build(exact_profile_problem, _cube(64, EXACT_T))
        errors = []
        worst_time = 0.0
        for eps in EPS_FAMILY:
            t0 = time.perf_counter()
            hist = self.store.solve(problem, eps)
            worst_time = max(worst_time, time.perf_counter() - t0)
            errors.append(exact_error(hist))
        passed = all(ok for _, ok in errors) and worst_time < 10.0
        return CriterionResult(
            1, "exact stationary reproduction", passed,
            f"max error {max(err for err, _ in errors):.3e} (tol {EXACT_TOL:.0e}), "
            f"slowest solve {worst_time:.2f} s (limit 10 s)")

    def criterion_2(self) -> CriterionResult:
        from . import mms  # sympy loads only when this criterion runs

        orders = {s: mms.refinement_study(s).order for s in MMS_FLOORS}
        passed = all(orders[s] >= floor for s, floor in MMS_FLOORS.items())
        return CriterionResult(
            2, "manufactured-solution convergence", passed,
            "orders " + ", ".join(f"{s} {orders[s]:.2f} (>={floor:g})"
                                  for s, floor in MMS_FLOORS.items()))

    def criterion_3(self) -> CriterionResult:
        problem = self.store.build(favorable_accel_problem, _cube(64, ACCEL_T))
        series = {}
        for eps in EPS_FAMILY:
            for key, value in estimate_battery(self.store.solve(problem, eps)).items():
                series.setdefault(key, []).append(value)
        spreads = {k: uniformity_spread(v) for k, v in series.items()}
        worst = max(spreads, key=spreads.get)
        passed = all(s < 0.10 for s in spreads.values())
        return CriterionResult(
            3, "eps-uniform functional bounds", passed,
            f"worst spread {spreads[worst]:.3f} ({worst}) across eps {EPS_FAMILY} (tol 0.10)")

    def criterion_4(self) -> CriterionResult:
        table, proxy, verdicts = cauchy_sweep(self.store, _cube(64, ACCEL_T), SWEEP_LIST)
        return CriterionResult(
            4, "vanishing-viscosity Cauchy property", all(verdicts.values()),
            f"diffs {['%.2e' % r.l1_diff for r in table.rows]} strictly decreasing: "
            f"{table.strictly_decreasing}; final {table.rows[-1].l1_diff:.2e} < "
            f"{SWEEP_PROXY_FACTOR:g} x proxy {proxy:.2e}")

    def criterion_5(self) -> CriterionResult:
        p64 = self.store.build(exact_profile_problem, _cube(64, EXACT_T))
        tr, res64, verdicts = weak_identity(self.store.solve(p64, 1e-3), p64)
        p128 = exact_profile_problem(_cube(128, EXACT_T))
        res128 = weak_residual(solve(p128, p128.grid, 1e-3), p128)
        ratio = res64 / res128 if res128 > 0 else float("inf")
        passed = all(verdicts.values()) and ratio >= 1.8
        return CriterionResult(
            5, "weak-solution identity", passed,
            f"residual {res64:.3e} (tol {WEAK_RESIDUAL_TOL:.0e}), refinement ratio "
            f"{ratio:.2f} (>=1.8), wall trace {tr.wall_sup:.3e} (tol {WALL_TRACE_TOL:.0e})")

    def criterion_6(self) -> CriterionResult:
        c6 = {}
        finite = True
        for n in (64, 128):
            for eps in (1e-2, 1e-3):
                # the 128^3 marches of one eps are read by that pass only
                store = self.store if n == 64 else SolveStore()
                stabs, verdicts = family_stability(store, _cube(n, ACCEL_T), eps, 1e-3)
                finite = finite and all(verdicts.values())
                for family, stab in stabs.items():
                    c6.setdefault(family, []).append(stab.c6_hat)
        spreads = {f: uniformity_spread(v) for f, v in c6.items()}
        # the stored march at n = 64, eps = 1e-3 against one fresh march
        problem = self.store.build(favorable_accel_problem, _cube(64, ACCEL_T))
        ident, ident_ok = identical_data(self.store, problem, 1e-3)
        passed = finite and all(s < 0.20 for s in spreads.values()) and ident_ok
        worst = max(spreads, key=spreads.get)
        return CriterionResult(
            6, "L1 continuous dependence", passed,
            f"c6 per family {({f: '%.3f' % max(v) for f, v in c6.items()})}, worst spread "
            f"{spreads[worst]:.3f} ({worst}, tol 0.20), identical-data lhs {ident:.2e} "
            f"(tol {IDENTICAL_TOL:.0e})")

    def criterion_7(self) -> CriterionResult:
        kid, verdicts = kernel_identities(7)
        return CriterionResult(
            7, "fundamental-solution identities", all(verdicts.values()),
            f"mass defect {max(kid['mass'].values()):.2e} (tol {KERNEL_MASS_TOL:.0e}), "
            f"dilation defect {kid['dilation']:.2e} (tol {DILATION_TOL:.0e}), "
            f"residual order {kid['order']:.2f} (>={KERNEL_ORDER_FLOOR:g})")

    def criterion_8(self) -> CriterionResult:
        report = ko.verify_lemma(ko.CutoffSpec(r=1.0, theta=THETA_DEFAULT))
        margins = ", ".join(f"{c.name} {c.margin:.3g}" for c in report.checks)
        return CriterionResult(
            8, "cutoff certification", report.ok,
            f"{ko.LEMMA_NODES}^3 lattice at theta {THETA_DEFAULT:g}: {margins}")

    def criterion_9(self) -> CriterionResult:
        unit, ok = unit_density(0.01)
        details = [f"unit field {unit.ratio:.3f}"]
        for kind, lam, seed in ROUGH_COEFS:
            den, run_ok = density_floor(self.store.build(_model_history, kind, lam, seed), 0.01)
            ok = ok and run_ok
            details.append(f"{kind}-{lam:g}-{seed} min ratio "
                           f"{min(den.h_certificate.values()):.3f}")
        return CriterionResult(
            9, "density estimate", ok,
            "; ".join(details) + f" (floor {ko.DENSITY_FLOOR:.4f} for h <= 0.01)")

    def criterion_10(self) -> CriterionResult:
        spec = poincare_cutoff(THETA_DEFAULT)

        def family_constant(grid):
            reports = [pinched_poincare(ko.model_scenarios(kind, lam=lam, seed=seed),
                                        grid, 0.01, spec)
                       for kind, lam, seed in ROUGH_COEFS]
            return (max(rep.ratio for rep in reports),
                    sum(int(rep.hard_violation) for rep in reports))

        c_base, viol_base = family_constant(ko.MODEL_GRID)
        c_fine, viol_fine = family_constant(MODEL_GRID_FINE)
        both_tiny = c_base <= 1e-6 and c_fine <= 1e-6
        stable = both_tiny or abs(c_base - c_fine) <= 0.25 * max(c_base, c_fine)
        passed = stable and viol_base == 0 and viol_fine == 0
        return CriterionResult(
            10, "weak Poincare functional", passed,
            f"C {c_base:.3e} -> refined {c_fine:.3e} "
            f"({'both negligible' if both_tiny else 'within 25%'}), hard violations "
            f"{viol_base + viol_fine}")

    def criterion_11(self) -> CriterionResult:
        oscs = [model_oscillation(self.store.build(_model_history, kind, lam, 0))
                for kind in ("checkerboard", "seeded-random") for lam in (2.0, 4.0)]
        _, ctl_err, ctl_ok = linear_control()
        passed = ctl_ok and all(all(verdicts.values()) for _, verdicts in oscs)
        return CriterionResult(
            11, "oscillation decay", passed,
            f"beta_bar {['%.3f' % osc.beta_bar for osc, _ in oscs]} (in (0, 1)), Holder "
            f"exponents {['%.2f' % osc.alpha_holder for osc, _ in oscs]} (>0), "
            f"linear control defect {ctl_err:.1e}")

    def criterion_12(self) -> CriterionResult:
        from .reporting import write_artifacts
        from .scenarios import run_scenario

        def produce(root: Path):
            files = []
            for cfg in artifact_bundle():
                out = root / cfg.scenario
                result = run_scenario(cfg)
                files.extend(write_artifacts(result, out))
            return sorted(p.relative_to(root) for p in files)

        with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
            ra, rb = Path(tmp_a), Path(tmp_b)
            return _determinism(ra, rb, produce(ra), produce(rb))

    def run(self, numbers=None) -> AcceptanceReport:
        numbers = list(range(1, 13) if numbers is None else numbers)
        if not numbers:
            raise ConfigError("no criteria requested")
        if len(set(numbers)) < len(numbers):
            raise ConfigError(f"criterion numbers must not repeat, got {numbers}")
        methods = []
        for i in numbers:
            method = getattr(self, f"criterion_{i}", None)
            if method is None:
                raise ConfigError(f"no criterion numbered {i}")
            methods.append((i, method))

        def chunk(start, stop):
            results = []
            for i, method in methods[start:stop]:
                t0 = time.perf_counter()
                try:
                    res = method()
                except CroccoError as exc:
                    res = CriterionResult(i, f"criterion {i}", False,
                                          f"raised {type(exc).__name__}: {exc}")
                res.seconds = time.perf_counter() - t0
                results.append(res)
            return results

        return AcceptanceReport(results=[res for part in fork_map(chunk, len(methods))
                                         for res in part])


def parse_suite(text: str):
    """'full' or comma-separated criterion numbers; AcceptanceEngine.run
    checks the numbers."""
    if text == "full":
        return list(range(1, 13))
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"suite must be 'full' or criterion numbers, got '{text}'") from None


def run_acceptance(numbers=None, out_dir=None) -> AcceptanceReport:
    engine = AcceptanceEngine()
    report = engine.run(numbers)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = f"# crocco-prandtl {__version__} acceptance"
        (out / "acceptance.txt").write_text(header + "\n" + report.summary() + "\n")
        rows = [header, "number,passed,name"]
        rows += [f"{r.number},{int(r.passed)},{r.name}" for r in report.results]
        (out / "acceptance.csv").write_text("\n".join(rows) + "\n")
    return report
