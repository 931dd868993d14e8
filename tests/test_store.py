"""The solve store: memoized problems and solves within one run or one
engine, and the deliberate reruns that must bypass it.

Solves are counted by replacing `solve` wherever the package binds it:
the store reaches it through the solver module, and the deliberate rerun
of identical data (scenarios.identical_data) calls it directly from the
scenario module, for the runner and the acceptance criterion alike.  A run
forks some of its marches (SolveStore.solve_many, the refinement proxy),
so each solve is appended to a file the forked workers inherit, and the
count covers every process at the real core count.
"""

import ast
import os
import weakref

import pytest

from crocco_prandtl import parallel, scenarios, solver
from crocco_prandtl.acceptance import AcceptanceEngine
from crocco_prandtl.config import RunConfig
from crocco_prandtl.grids import FieldHistory, GridSpec
from crocco_prandtl.scenarios import favorable_accel_problem, run_scenario
from crocco_prandtl.solver import SolveStore


class SolveLog:
    """The solves made in this process and in every worker it forks."""

    def __init__(self, path):
        self.path = path
        self.path.write_text("")
        self.here = []  # a weak reference to each history marched in this process

    def record(self, problem, grid, eps, hist):
        with open(self.path, "a") as log:
            log.write(repr((problem.label, grid.nx, eps, os.getpid())) + "\n")
        self.here.append(weakref.ref(hist))

    def with_pids(self) -> list:
        """(label, nx, eps, pid) per solve, in the order the solves ended."""
        return [ast.literal_eval(line) for line in self.path.read_text().splitlines()]

    def __call__(self) -> list:
        """(label, nx, eps) per solve, in the order the solves ended."""
        return [call[:3] for call in self.with_pids()]

    def clear(self):
        self.path.write_text("")


@pytest.fixture
def solves(monkeypatch, tmp_path):
    """The SolveLog of every solve made while the test runs."""
    log = SolveLog(tmp_path / "solves.log")
    original = solver.solve

    def counting(problem, grid, eps, forcing=None, label=""):
        hist = original(problem, grid, eps, forcing, label)
        log.record(problem, grid, eps, hist)
        return hist

    for module in (solver, scenarios):
        monkeypatch.setattr(module, "solve", counting)
    return log


@pytest.fixture
def identical_pairs(monkeypatch):
    """(hist_a, hist_b) of every l1_stability call on one problem twice."""
    pairs = []
    original = scenarios.l1_stability

    def wrapped(hist_a, hist_b, prob_a, prob_b):
        if prob_a is prob_b:
            pairs.append((hist_a, hist_b))
        return original(hist_a, hist_b, prob_a, prob_b)
    monkeypatch.setattr(scenarios, "l1_stability", wrapped)
    return pairs


def test_store_builds_and_solves_once(solves):
    store = SolveStore()
    grid = GridSpec(8, 8, 16, L=1.0, T=0.5)
    problem = store.build(favorable_accel_problem, grid)
    assert store.build(favorable_accel_problem, GridSpec(8, 8, 16, L=1.0, T=0.5)) is problem
    first = store.solve(problem, 1e-2)
    assert store.solve(problem, 1e-2) is first
    assert store.solve(problem, 1e-3) is not first
    assert len(solves()) == 2
    # a second store shares nothing with the first
    other = SolveStore()
    assert other.build(favorable_accel_problem, grid) is not problem


def test_viscosity_sweep_run_solves_each_eps_once(solves):
    eps_list = (0.1, 0.03, 0.01)
    cfg = RunConfig(scenario="viscosity_sweep", nx=16, ny=16, nt=24, eps_list=eps_list)
    assert run_scenario(cfg).ok
    # one solve per eps, plus the refined grid of the proxy; the proxy's
    # coarse run and the primary history are the sweep's last run
    assert len(solves()) == len(eps_list) + 1
    assert sorted(solves()) == sorted(
        [("favorable_accel", 16, e) for e in eps_list] + [("favorable_accel", 32, 0.01)])


def test_stability_perturb_run_solves_five_times(solves, identical_pairs):
    cfg = RunConfig(scenario="stability_perturb", nx=16, ny=16, nt=24, eps=1e-2)
    assert run_scenario(cfg).ok
    # base, its deliberate rerun, and one run per perturbation family
    assert len(solves()) == 5
    assert solves().count(("favorable_accel", 16, 1e-2)) == 2
    # negative control: the rerun is a fresh march, not the stored base
    assert len(identical_pairs) == 1
    hist_a, hist_b = identical_pairs[0]
    assert hist_a is not hist_b


def test_identical_data_fresh_march_runs_here_after_the_stored_one(solves, identical_pairs):
    cfg = RunConfig(scenario="stability_perturb", nx=16, ny=16, nt=24, eps=1e-2)
    assert run_scenario(cfg).ok
    calls = solves.with_pids()
    if parallel._usable_cores() > 1:
        # the family marches were split across the cores
        assert len({pid for *_, pid in calls}) > 1
    # the stored base and its fresh rerun were both marched in this process,
    # the stored one first, so the rerun sees any state the first one left
    assert [pid for *key, pid in calls if key == ["favorable_accel", 16, 1e-2]] == [
        os.getpid()] * 2
    hist_a, hist_b = identical_pairs[0]
    here = [ref() for ref in solves.here]
    stored = [i for i, hist in enumerate(here) if hist is hist_a]
    fresh = [i for i, hist in enumerate(here) if hist is hist_b]
    assert len(stored) == len(fresh) == 1 and stored[0] < fresh[0]


def test_engine_reuses_runs_across_criteria(solves, identical_pairs):
    engine = AcceptanceEngine()
    assert engine.run([3]).all_pass
    solves.clear()
    assert engine.run([4]).all_pass
    # criterion 3 already solved eps 0.1, 0.01 and 0.001 at 64^3
    assert sorted(solves()) == [("favorable_accel", 64, 0.003),
                              ("favorable_accel", 64, 0.03),
                              ("favorable_accel", 128, 0.001)]
    solves.clear()
    assert engine.run([6]).all_pass
    # negative control: the identical-data pair is the stored march, made
    # by criterion 3, and one fresh march
    assert solves().count(("favorable_accel", 64, 1e-3)) == 1
    assert len(identical_pairs) == 1
    hist_a, hist_b = identical_pairs[0]
    assert hist_a is not hist_b


def _stored_sizes(store):
    """nx of every history the store holds."""
    return sorted(v.x.size - 1 for v in store._built.values() if isinstance(v, FieldHistory))


def test_engine_keeps_no_criterion_local_march(solves):
    engine = AcceptanceEngine()
    res5 = engine.run([5]).results[0]
    # the 128^3 march was made outside the engine's store
    assert _stored_sizes(engine.store) == [64]
    res6 = engine.run([6]).results[0]
    assert _stored_sizes(engine.store) == [64] * 9
    # the details the criteria gave while the engine's store held their
    # 128^3 marches
    assert res5.passed and res5.detail == (
        "wall_trace_small 2.487e-14 <= 1e-06, weak_residual_small 1.353e-05 <= 0.01, "
        "refinement_ratio 4 >= 1.8")
    assert res6.passed and res6.detail == (
        "c6_finite_initial_n64_eps0.01 1 < inf, c6_finite_inflow_n64_eps0.01 2 < inf, "
        "c6_finite_suction_n64_eps0.01 2.07 < inf, "
        "c6_finite_initial_n64_eps0.001 1 < inf, "
        "c6_finite_inflow_n64_eps0.001 2 < inf, "
        "c6_finite_suction_n64_eps0.001 2.048 < inf, "
        "c6_finite_initial_n128_eps0.01 1 < inf, "
        "c6_finite_inflow_n128_eps0.01 2 < inf, "
        "c6_finite_suction_n128_eps0.01 2.279 < inf, "
        "c6_finite_initial_n128_eps0.001 1 < inf, "
        "c6_finite_inflow_n128_eps0.001 2 < inf, "
        "c6_finite_suction_n128_eps0.001 2.254 < inf, spread_c6_initial 0 < 0.2, "
        "spread_c6_inflow 0 < 0.2, spread_c6_suction 0.1067 < 0.2, "
        "identical_data_silent 0 <= 1e-12")
    # the 64^3 marches they share are served from the engine's store
    solves.clear()
    assert engine.run([1]).all_pass and engine.run([3]).all_pass
    assert sorted(solves()) == [("exact_profile", 64, 1e-4), ("exact_profile", 64, 0.01),
                              ("exact_profile", 64, 0.1), ("favorable_accel", 64, 1e-4),
                              ("favorable_accel", 64, 0.1)]
    # criterion 4 keeps its sweep's 64^3 marches; its refinement proxy
    # marches 128^3 outside the store
    solves.clear()
    assert engine.run([4]).all_pass
    assert sorted(solves()) == [("favorable_accel", 64, 0.003), ("favorable_accel", 64, 0.03),
                              ("favorable_accel", 128, 0.001)]
    assert _stored_sizes(engine.store) == [64] * 16
