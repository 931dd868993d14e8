"""The one fork helper: fork_each's results crossing the pipe, its order,
its thunk 0 in the calling process and its nesting, one_core's narrowed
affinity, and scenarios.family_stability on top of it."""

import os
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest

from crocco_prandtl import parallel, scenarios, solver
from crocco_prandtl.errors import NumericalError
from crocco_prandtl.estimates import l1_stability
from crocco_prandtl.grids import FieldHistory, GridSpec
from crocco_prandtl.scenarios import (family_stability, favorable_accel_problem,
                                      perturbed_problems)
from crocco_prandtl.solver import SolveStore


def _cores(n):
    return mock.patch.object(parallel, "_usable_cores", return_value=n)


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _DiesWhenPickled:
    """Kills the worker that pickles it, after the bytes before it are out."""

    def __reduce__(self):
        os._exit(7)


def test_a_worker_that_dies_mid_pickle_raises_runtime_error():
    # the 1 MB block streams into the pipe before the worker dies, so the
    # caller reads a cut-short pickle
    def thunk():
        return [bytes(1 << 20), _DiesWhenPickled()]

    with _cores(2), pytest.raises(RuntimeError, match="exited with code 7"):
        parallel.fork_each([thunk, thunk])
    _no_worker_left()


def _refused(i):
    if i:
        raise NumericalError(f"thunk {i}")
    return i


def test_a_worker_exception_is_raised_here():
    with _cores(2), pytest.raises(NumericalError, match="thunk 1"):
        parallel.fork_each([partial(_refused, 0), partial(_refused, 1)])
    _no_worker_left()


def _normal(seed):
    return np.random.default_rng(seed).standard_normal(17_000_000 // 8)


def test_a_17_mb_array_round_trips_bit_for_bit_and_is_held_once():
    tracemalloc.start()
    try:
        with _cores(2):
            here, forked = parallel.fork_each([partial(_normal, 0), partial(_normal, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # thunk 0's array and the received one; a payload read whole before
    # unpickling would add a third 17 MB
    assert peak < 2.5 * 17e6
    assert forked.nbytes == 17_000_000 and forked.flags.writeable
    assert forked.tobytes() == _normal(1).tobytes()
    assert here.tobytes() == _normal(0).tobytes()
    _no_worker_left()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_fork_each_keeps_order_and_runs_thunk_0_here(cores):
    thunks = [lambda i=i: (i, os.getpid()) for i in range(5)]
    with _cores(cores):
        out = parallel.fork_each(thunks)
    assert [i for i, _ in out] == list(range(5))
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == cores
    _no_worker_left()


def test_fork_each_of_one_core_forks_nothing():
    with _cores(1), mock.patch.object(parallel.os, "fork") as fork:
        assert parallel.fork_each([lambda: 1, lambda: 2]) == [1, 2]
    fork.assert_not_called()


def test_fork_each_of_an_empty_list_forks_nothing():
    with _cores(2), mock.patch.object(parallel.os, "fork") as fork:
        assert parallel.fork_each([]) == []
    fork.assert_not_called()


def test_fork_each_nests_inside_a_worker():
    # criteria 10 and 12 fork their mean values and fields.csv writes from
    # inside the worker run of a full suite
    def outer(i):
        return parallel.fork_each([lambda j=j: (i, j, os.getpid()) for j in range(4)])

    with _cores(2):
        runs = parallel.fork_each([partial(outer, 0), partial(outer, 1)])
    assert [[out[:2] for out in run] for run in runs] == [
        [(i, j) for j in range(4)] for i in range(2)]
    assert len({out[2] for run in runs for out in run}) == 4
    _no_worker_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no settable affinity")
def test_one_core_forks_nothing_and_restores_the_affinity():
    mask = os.sched_getaffinity(0)
    with mock.patch.object(parallel.os, "fork") as fork:
        with parallel.one_core():
            assert parallel._usable_cores() == 1
            assert parallel.fork_each([lambda: 1, lambda: 2]) == [1, 2]
        with pytest.raises(KeyError), parallel.one_core():
            raise KeyError("left early")
    fork.assert_not_called()
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("cores", [1, 2])
def test_family_stability_measures_as_if_all_four_were_marched_first(cores):
    grid = GridSpec(8, 8, 16, L=1.0, T=0.5)
    base_problem = favorable_accel_problem(grid)
    base = solver.solve(base_problem, grid, 1e-2)
    expected = {name: l1_stability(base, solver.solve(prob, grid, 1e-2), base_problem, prob)
                for name, prob in perturbed_problems(grid, 1e-3).items()}
    store = SolveStore()
    with _cores(cores):
        stabs, _ = family_stability(store, grid, 1e-2, 1e-3)
    assert list(stabs) == list(expected) == ["initial", "inflow", "suction"]
    for name, stab in stabs.items():
        assert np.array_equal(stab.lhs, expected[name].lhs), name
        assert np.array_equal(stab.rhs, expected[name].rhs), name
        assert stab.c6_hat == expected[name].c6_hat, name
    # the store keeps the base march and no family
    stored = [v for v in store._built.values() if isinstance(v, FieldHistory)]
    assert len(stored) == 1 and np.array_equal(stored[0].values, base.values)
    _no_worker_left()


@pytest.mark.parametrize("cores", [1, 2])
def test_a_family_march_that_fails_raises_from_family_stability(monkeypatch, cores):
    # the suction family is the last thunk, so on two cores it fails in a worker
    original = scenarios.solve

    def failing(problem, grid, eps, forcing=None, label=""):
        if problem.label == "perturb-suction":
            raise NumericalError("no real wall value")
        return original(problem, grid, eps, forcing, label)

    monkeypatch.setattr(scenarios, "solve", failing)
    with _cores(cores), pytest.raises(NumericalError, match="no real wall value"):
        family_stability(SolveStore(), GridSpec(8, 8, 16, L=1.0, T=0.5), 1e-2, 1e-3)
    _no_worker_left()
