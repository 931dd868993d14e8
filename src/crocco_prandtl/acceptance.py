"""Acceptance checklist.

Twelve numbered criteria, each measuring a pinned quantitative surrogate
at desk scale.  A store keeps only what a second reader in its run takes:
the engine's SolveStore holds what criteria share, the 64^3 problems and
strip marches of criteria 1 and 3-6 and the model runs of criteria 9 and
11, and every 128^3 march is freed when the criterion that reads it
returns.

run() hands parallel.fork_each one thunk per requested criterion, and it
runs the first contiguous run of them here against the engine's store and
each further run, one per usable core, in a forked worker against its own
copy, discarded once its results are back.  So criteria reuse each
other's shared fields within a run, verdicts and details are identical to
a 1-core run, and each criterion's seconds are measured in the process
that ran it.  Criteria 4 and 6 fork again inside their run, through the
measurements they share with the runners (cauchy_sweep, family_stability).
The measurements themselves are the functions the scenario runners call,
and a bound a runner applies too lives with the measurement in scenarios,
which returns its checks (grids.Check).  A criterion takes all of them and
adds a Check per threshold only it applies; its result derives the verdict
and the detail from those checks alone.  Two criteria bypass the store on
purpose: criterion 6 compares its stored march with one fresh march of
the same data, and criterion 12 reruns the full artifact bundle, each
scenario with its own fresh store, the second time on one usable core, so
that an artifact whose bits follow the split across cores differs.
"""

import filecmp
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List

import numpy as np

from . import kolmogorov as ko
from . import parallel
from ._version import __version__
from .config import SCENARIOS, RunConfig
from .errors import ConfigError, CroccoError
from .estimates import uniformity_spread, weak_residual
from .grids import Check, GridSpec
from .scenarios import (ACCEL_T, EXACT_T, cauchy_sweep, density_floor, estimate_battery,
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
    """A criterion's named checks; it passes when it has at least one and
    every one passes.  A criterion that raised has none, and error says why."""

    number: int
    name: str
    checks: dict
    error: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(chk.passed for chk in self.checks.values())

    @property
    def detail(self) -> str:
        """Every check as `name value sense bound`, in order, or the error."""
        return (self.error or ", ".join(f"{name} {chk}" for name, chk in self.checks.items())
                or "no checks")

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


def _keyed(checks: dict, suffix: str) -> dict:
    """checks with suffix appended to each name, for one of several runs."""
    return {f"{name}_{suffix}": chk for name, chk in checks.items()}


def artifact_bundle():
    """One RunConfig per scenario at its shipped desk-scale settings."""
    return tuple(RunConfig(s, *ko.MODEL_GRID) if s == "oscillation_lab" else RunConfig(s)
                 for s in SCENARIOS)


def _determinism(ra: Path, rb: Path, files_a, files_b) -> CriterionResult:
    """Criterion 12 on two artifact trees and their relative paths: a positive
    path count, and per path 0 when both trees hold it with the same bytes
    (compared block by block by filecmp, so neither copy is held whole)."""
    paths, both = sorted(set(files_a) | set(files_b)), set(files_a) & set(files_b)
    checks = {"artifacts": Check(len(paths), 0, ">")}
    for rel in paths:
        same = rel in both and filecmp.cmp(ra / rel, rb / rel, shallow=False)
        checks[str(rel)] = Check(0 if same else 1, 0, "==")
    return CriterionResult(12, "determinism", checks)


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
        checks = {}
        worst_time = 0.0
        for eps in EPS_FAMILY:
            t0 = time.perf_counter()
            hist = self.store.solve(problem, eps)
            worst_time = max(worst_time, time.perf_counter() - t0)
            checks.update(_keyed(exact_error(hist)[1], f"eps{eps:g}"))
        checks["slowest_solve_s"] = Check(worst_time, 10.0, "<")
        return CriterionResult(1, "exact stationary reproduction", checks)

    def criterion_2(self) -> CriterionResult:
        from . import mms  # sympy loads only when this criterion runs

        return CriterionResult(2, "manufactured-solution convergence",
                               {f"order_{s}": Check(mms.refinement_study(s), floor, ">=")
                                for s, floor in MMS_FLOORS.items()})

    def criterion_3(self) -> CriterionResult:
        problem = self.store.build(favorable_accel_problem, _cube(64, ACCEL_T))
        series = {}
        for eps in EPS_FAMILY:
            for key, value in estimate_battery(self.store.solve(problem, eps)).items():
                series.setdefault(key, []).append(value)
        return CriterionResult(3, "eps-uniform functional bounds",
                               {f"spread_{k}": Check(uniformity_spread(v), 0.10, "<")
                                for k, v in series.items()})

    def criterion_4(self) -> CriterionResult:
        _, checks = cauchy_sweep(self.store, _cube(64, ACCEL_T), SWEEP_LIST)
        return CriterionResult(4, "vanishing-viscosity Cauchy property", checks)

    def criterion_5(self) -> CriterionResult:
        p64 = self.store.build(exact_profile_problem, _cube(64, EXACT_T))
        _, checks = weak_identity(self.store.solve(p64, 1e-3), p64)
        p128 = exact_profile_problem(_cube(128, EXACT_T))
        res64 = checks["weak_residual_small"].value
        res128 = weak_residual(solve(p128, p128.grid, 1e-3), p128)
        ratio = res64 / res128 if res128 > 0 else float("inf")
        checks["refinement_ratio"] = Check(ratio, 1.8, ">=")
        return CriterionResult(5, "weak-solution identity", checks)

    def criterion_6(self) -> CriterionResult:
        c6, checks = {}, {}
        for n in (64, 128):
            for eps in (1e-2, 1e-3):
                # the 128^3 marches of one eps are read by that pass only
                store = self.store if n == 64 else SolveStore()
                stabs, finite = family_stability(store, _cube(n, ACCEL_T), eps, 1e-3)
                checks.update(_keyed(finite, f"n{n}_eps{eps:g}"))
                for family, stab in stabs.items():
                    c6.setdefault(family, []).append(stab.c6_hat)
        checks.update((f"spread_c6_{f}", Check(uniformity_spread(v), 0.20, "<"))
                      for f, v in c6.items())
        # the stored march at n = 64, eps = 1e-3 against one fresh march
        problem = self.store.build(favorable_accel_problem, _cube(64, ACCEL_T))
        checks.update(identical_data(self.store, problem, 1e-3)[1])
        return CriterionResult(6, "L1 continuous dependence", checks)

    def criterion_7(self) -> CriterionResult:
        return CriterionResult(7, "fundamental-solution identities", kernel_identities(7)[1])

    def criterion_8(self) -> CriterionResult:
        return CriterionResult(8, "cutoff certification",
                               ko.verify_lemma(ko.CutoffSpec(r=1.0, theta=THETA_DEFAULT)))

    def criterion_9(self) -> CriterionResult:
        checks = unit_density(0.01)[1]
        for kind, lam, seed in ROUGH_COEFS:
            hist = self.store.build(_model_history, kind, lam, seed)
            checks.update(_keyed(density_floor(hist, 0.01)[1], f"{kind}-{lam:g}-{seed}"))
        return CriterionResult(9, "density estimate", checks)

    def criterion_10(self) -> CriterionResult:
        """The weak Poincare constant C of the ROUGH_COEFS family, the largest
        ratio of its three pinched runs, on MODEL_GRID and on the doubled
        MODEL_GRID_FINE: one mean-value pass per grid, whose runs are
        made and dropped one at a time."""
        spec = poincare_cutoff(THETA_DEFAULT)

        def family_constant(grid):
            reports = pinched_poincare([ko.model_scenarios(kind, lam=lam, seed=seed)
                                        for kind, lam, seed in ROUGH_COEFS], grid, 0.01, spec)
            # np.max, unlike max, keeps a NaN ratio in any position
            return (float(np.max([rep.ratio for rep in reports])),
                    sum(rep.ratio == float("inf") for rep in reports))

        c_base, viol_base = family_constant(ko.MODEL_GRID)
        c_fine, viol_fine = family_constant(MODEL_GRID_FINE)
        # C is stable when both values are negligible or they agree within 25%
        larger = max(c_base, c_fine)
        return CriterionResult(10, "weak Poincare functional", {
            "C": Check(c_base, np.inf, "<"), "C_refined": Check(c_fine, np.inf, "<"),
            "C_change": Check(abs(c_base - c_fine),
                              np.inf if larger <= 1e-6 else 0.25 * larger, "<="),
            "hard_violations": Check(viol_base + viol_fine, 0, "==")})

    def criterion_11(self) -> CriterionResult:
        checks = {}
        for kind in ("checkerboard", "seeded-random"):
            for lam in (2.0, 4.0):
                osc = model_oscillation(self.store.build(_model_history, kind, lam, 0))[1]
                checks.update(_keyed(osc, f"{kind}-{lam:g}"))
        checks.update(linear_control()[1])
        return CriterionResult(11, "oscillation decay", checks)

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
            files_a, cores_a = produce(ra), parallel._usable_cores()
            with parallel.one_core():  # so a bit that follows the split differs
                files_b, cores_b = produce(rb), parallel._usable_cores()
            res = _determinism(ra, rb, files_a, files_b)
        res.checks["usable_cores_second"] = Check(cores_b, cores_a, "<=")
        return res

    def run(self, numbers) -> AcceptanceReport:
        if not numbers:
            raise ConfigError("no criteria requested")
        if len(set(numbers)) < len(numbers):
            raise ConfigError(f"criterion numbers must not repeat, got {numbers}")
        for i in numbers:
            if not hasattr(self, f"criterion_{i}"):
                raise ConfigError(f"no criterion numbered {i}")
        return AcceptanceReport(parallel.fork_each([partial(self._timed, i) for i in numbers]))

    def _timed(self, i: int) -> CriterionResult:
        """Criterion i, with a CroccoError as its FAIL row and its seconds."""
        t0 = time.perf_counter()
        try:
            res = getattr(self, f"criterion_{i}")()
        except CroccoError as exc:
            res = CriterionResult(i, f"criterion {i}", {}, f"raised {type(exc).__name__}: {exc}")
        res.seconds = time.perf_counter() - t0
        return res


def parse_suite(text: str):
    """'full' or comma-separated criterion numbers; AcceptanceEngine.run
    checks the numbers."""
    if text == "full":
        return list(range(1, 13))
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"suite must be 'full' or criterion numbers, got '{text}'") from None


def run_acceptance(numbers, out_dir) -> AcceptanceReport:
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
