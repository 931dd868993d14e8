"""Acceptance gate: one test per numbered criterion.

Tolerances are pinned inside crocco_prandtl.acceptance; these tests only
run each criterion and assert its verdict, so a failure here reproduces
the exact line the `acceptance` CLI verb would print.  The engine, and
with it its solve store, is the session-scoped `engine` fixture of
conftest.py, so problems, solves and model runs are shared across criteria
as in one `acceptance` invocation.  Each test runs one criterion, so the
engine forks nothing; the tests at the end cover the forked run with
stand-in criteria and the fork helper's core count patched.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from crocco_prandtl import acceptance, parallel, reporting, scenarios
from crocco_prandtl import kolmogorov as ko
from crocco_prandtl.acceptance import (ROUGH_COEFS, AcceptanceEngine, CriterionResult,
                                       _determinism, parse_suite, run_acceptance)
from crocco_prandtl.cli import main
from crocco_prandtl.config import SCENARIOS
from crocco_prandtl.crocco import CroccoProblem
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl.grids import Check, FieldHistory


@pytest.fixture(scope="module")
def results():
    return {}


def check(engine, results, number):
    if number not in results:
        results[number] = engine.run([number]).results[0]
    res = results[number]
    print(res.line())
    assert type(res.passed) is bool, type(res.passed)
    assert res.passed, res.line()
    return res


def test_criterion_01_exact_stationary_reproduction(engine, results):
    check(engine, results, 1)


def test_criterion_02_manufactured_solution_orders(engine, results):
    check(engine, results, 2)


# coefficient defects: the zeroth-order term dropped, the first-order one reversed
COEFFICIENT_MUTANTS = {
    "c_zero": lambda a, b, c: (a, b, np.zeros_like(c)),
    "b_flipped": lambda a, b, c: (a, -b, c),
}


@pytest.mark.parametrize("mutant", list(COEFFICIENT_MUTANTS))
def test_criterion_02_rejects_coefficient_defects(monkeypatch, mutant):
    # b = c = 0 under the uniform stream, so only the coupled study sees these
    original = CroccoProblem.coefficients
    monkeypatch.setattr(CroccoProblem, "coefficients",
                        lambda self, n=slice(None): COEFFICIENT_MUTANTS[mutant](*original(self, n)))
    res = AcceptanceEngine().criterion_2()
    assert not res.passed, res.detail


def test_criterion_03_eps_uniform_functionals(engine, results):
    check(engine, results, 3)


def test_criterion_04_vanishing_viscosity_cauchy(engine, results):
    check(engine, results, 4)


def test_criterion_05_weak_solution_identity(engine, results):
    check(engine, results, 5)


def test_criterion_06_l1_continuous_dependence(engine, results):
    check(engine, results, 6)


def test_criterion_07_fundamental_solution_identities(engine, results):
    check(engine, results, 7)


def test_criterion_08_cutoff_certification(engine, results):
    check(engine, results, 8)


def test_criterion_09_density_estimate(engine, results):
    check(engine, results, 9)


def test_criterion_10_weak_poincare(engine, results):
    check(engine, results, 10)


def test_criterion_11_oscillation_decay(engine, results):
    check(engine, results, 11)


def test_criterion_12_determinism(engine, results):
    check(engine, results, 12)


def test_criterion_11_fails_a_nan_in_one_run(engine):
    # one NaN node in the checkerboard-2 run, read by its r = 0.2 row only;
    # beta_bar once skipped it and the criterion passed on 0.2653, and the
    # Hölder fit once dropped it and stayed positive
    key = ("checkerboard", 2.0, 0)
    hist = engine.store.build(acceptance._model_history, *key)
    values = hist.values.copy()
    values[298, 24, 113] = np.nan
    broken = AcceptanceEngine()
    broken.store._built = dict(engine.store._built)
    broken.store._built[(acceptance._model_history, *key)] = FieldHistory(
        t=hist.t, x=hist.x, y=hist.y, values=values, label=hist.label)
    res = broken.criterion_11()
    assert _failing(res) == ["oscillation_decays_checkerboard-2",
                             "holder_positive_checkerboard-2"], res.detail
    assert np.isnan(res.checks["oscillation_decays_checkerboard-2"].value)


def _bundles(tmp_path, files_a, files_b):
    """Criterion 12's verdict on two artifact trees written from
    {relative path: bytes}."""
    rels = []
    for root, files in ((tmp_path / "a", files_a), (tmp_path / "b", files_b)):
        for rel, data in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        rels.append(sorted(Path(rel) for rel in files))
    return _determinism(tmp_path / "a", tmp_path / "b", *rels)


# a small artifact tree, its largest file three 8 KiB blocks and a partial one
BUNDLE = {"a/report.txt": b"overall = PASSED\n",
          "b/fields.csv": np.random.default_rng(12).bytes(3 * 8192 + 100)}


def _failing(res):
    return [name for name, chk in res.checks.items() if not chk.passed]


@pytest.mark.parametrize("mutate, failing", [
    (lambda data: data, []),
    (lambda data: data[:-1] + bytes([data[-1] ^ 1]),  # a byte flipped in the last block
     [str(Path("b/fields.csv"))]),
    (lambda data: data[:-1], [str(Path("b/fields.csv"))]),  # a byte short
], ids=["identical", "flipped_last_byte", "one_byte_short"])
def test_criterion_12_compare_rejects_a_changed_copy(tmp_path, mutate, failing):
    changed = dict(BUNDLE, **{"b/fields.csv": mutate(BUNDLE["b/fields.csv"])})
    res = _bundles(tmp_path, BUNDLE, changed)
    assert (res.passed, _failing(res)) == (not failing, failing)
    # artifacts, then a/report.txt and b/fields.csv, each 0 when its bytes agree
    assert [chk.value for chk in res.checks.values()] == [2, 0, len(failing)]


@pytest.mark.parametrize("extra_in", ["first", "second"])
def test_criterion_12_names_a_path_in_one_tree_only(tmp_path, extra_in):
    extra = dict(BUNDLE, **{"c/extra.txt": b"only here\n"})
    res = _bundles(tmp_path, *((extra, BUNDLE) if extra_in == "first" else (BUNDLE, extra)))
    assert not res.passed and _failing(res) == [str(Path("c/extra.txt"))]
    assert res.checks["artifacts"].value == 3


def test_criterion_12_fails_an_empty_bundle(tmp_path):
    res = _bundles(tmp_path, {}, {})
    assert not res.passed and res.checks == {"artifacts": Check(0, 0, ">")}


def _stand_in_bundle(monkeypatch, header):
    """Criterion 12's bundle replaced by one small report per scenario that
    holds header()."""
    monkeypatch.setattr(scenarios, "run_scenario", lambda cfg: cfg.scenario)

    def write(scenario, out):
        out.mkdir(parents=True)
        (out / "report.txt").write_text(f"# {scenario} {header()}\n")
        return [out / "report.txt"]
    monkeypatch.setattr(reporting, "write_artifacts", write)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or parallel._usable_cores() < 2,
                    reason="needs two usable CPUs and a settable affinity")
@pytest.mark.parametrize("header, passed", [
    (lambda: "same on every core count", True),
    (lambda: f"cores {parallel._usable_cores()}", False),
], ids=["fixed", "core_count"])
def test_criterion_12_compares_all_usable_cores_with_one(monkeypatch, header, passed):
    # the second bundle is made on one core, so an artifact that follows the
    # split across cores fails the check named after it
    _stand_in_bundle(monkeypatch, header)
    cores = parallel._usable_cores()
    res = AcceptanceEngine().criterion_12()
    assert res.passed is passed, res.detail
    assert str(res.checks["usable_cores_second"]) == f"1 <= {cores}"
    assert _failing(res) == ([] if passed else [str(Path(s, "report.txt"))
                                                for s in sorted(SCENARIOS)])
    assert parallel._usable_cores() == cores  # the affinity is restored


def _either_or(c, c_refined, violations):
    """Criterion 10's verdict as it was decided before its checks decided
    it: C is stable when both values are negligible or they agree within
    25%, and no run reads a hard violation."""
    return ((c <= 1e-6 and c_refined <= 1e-6)
            or abs(c - c_refined) <= 0.25 * max(c, c_refined)) and violations == 0


# (C, C_refined, hard violations, verdict); an infinite C is a run's ratio
# inf, which counts as a hard violation
NAN, INF = float("nan"), float("inf")
CRITERION_10_CASES = {
    "shipped": (4.393e-23, 4.365e-23, 0, True),
    "both_negligible_far_apart": (1e-7, 1e-6, 0, True),
    "nan_first": (NAN, 1e-23, 0, False),
    "nan_second": (1e-23, NAN, 0, False),
    "nan_both": (NAN, NAN, 0, False),
    "inf_first": (INF, 1e-23, 1, False),
    "inf_second": (1e-23, INF, 1, False),
    "inf_both": (INF, INF, 2, False),
    "one_above_within_quarter": (1.1e-6, 1e-6, 0, True),
    "one_above_past_quarter": (2e-6, 1e-6, 0, False),
    "change_at_quarter": (1.0, 0.75, 0, True),
    "change_at_quarter_reversed": (0.75, 1.0, 0, True),
    "change_past_quarter": (1.0, np.nextafter(0.75, 0.0), 0, False),
}


@pytest.mark.parametrize("case", list(CRITERION_10_CASES))
def test_criterion_10_checks_decide_as_the_either_or_did(monkeypatch, case):
    c, c_refined, violations, verdict = CRITERION_10_CASES[case]
    kind, lam, seed = ROUGH_COEFS[0]
    first = ko.model_scenarios(kind, lam=lam, seed=seed).name

    def stand_in(coef, grid, h, spec):
        # the first coefficient reads the constant of its grid, the others 0
        ratio = (c if grid == ko.MODEL_GRID else c_refined) if coef.name == first else 0.0
        return ko.PoincareReport(0.5, ratio, 1.0, ratio)
    monkeypatch.setattr(acceptance, "pinched_poincare", stand_in)
    res = AcceptanceEngine().criterion_10()
    assert res.checks["hard_violations"].value == violations
    assert res.passed == _either_or(c, c_refined, violations) == verdict, res.detail
    if max(c, c_refined) <= 1e-6:  # both negligible: their change is not bounded
        assert str(res.checks["C_change"]).endswith(" <= inf")


def test_parse_suite_accepts_full_and_lists():
    # parse_suite only parses; AcceptanceEngine.run checks the numbers
    assert parse_suite("full") == list(range(1, 13))
    assert parse_suite("1,4,7") == [1, 4, 7]
    assert parse_suite("0,5") == [0, 5]
    assert parse_suite("") == []
    with pytest.raises(ConfigError):
        parse_suite("nope")
    with pytest.raises(ConfigError, match="no criterion numbered 0"):
        AcceptanceEngine().run(parse_suite("0,5"))
    with pytest.raises(ConfigError, match="no criteria requested"):
        AcceptanceEngine().run(parse_suite(""))


def test_parse_suite_refuses_a_repeated_number(stand_ins, capsys):
    # a repeated number would run its criterion twice and write two rows; run
    # refuses it before any fork, and the command line exits 2
    stand_ins.setattr(AcceptanceEngine, "criterion_7", _raising(AssertionError("ran")))
    with _cores(2), mock.patch.object(parallel.os, "fork") as fork:
        with pytest.raises(ConfigError, match="must not repeat"):
            AcceptanceEngine().run([8, 8])
        with pytest.raises(ConfigError, match="must not repeat"):
            run_acceptance(numbers=parse_suite("1,1,7"), out_dir=None)
        assert main(["acceptance", "--suite", "7, 8,7"]) == 2
    fork.assert_not_called()
    assert "must not repeat" in capsys.readouterr().err


def test_run_acceptance_writes_summary(tmp_path):
    report = run_acceptance(numbers=[7, 8], out_dir=tmp_path)
    assert report.all_pass
    text = (tmp_path / "acceptance.txt").read_text()
    assert text.startswith("# crocco-prandtl")
    assert "criterion  7 [PASS]" in text
    assert "acceptance = PASSED" in text
    csv = (tmp_path / "acceptance.csv").read_text().splitlines()
    assert csv[1] == "number,passed,name"
    assert csv[2].startswith("7,1,")


# ---------------------------------------------------------------------------
# the criteria forked across cores: one chunk per usable core


def _cores(n):
    return mock.patch.object(parallel, "_usable_cores", return_value=n)


def _pid_criterion(number):
    """A stand-in criterion whose one check reads the process that ran it."""
    return lambda self: CriterionResult(number, f"stand-in {number}",
                                        {"pid": Check(os.getpid(), 0, ">")})


def _raising(exc):
    def criterion(self):
        raise exc
    return criterion


@pytest.fixture
def stand_ins(monkeypatch):
    for number in (7, 8):
        monkeypatch.setattr(AcceptanceEngine, f"criterion_{number}", _pid_criterion(number))
    return monkeypatch


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_run_keeps_request_order(stand_ins):
    with _cores(2):
        results = AcceptanceEngine().run([8, 7]).results
    assert [r.number for r in results] == [8, 7]
    # chunk 0 runs here, the second chunk in a worker
    assert results[0].checks["pid"].value == os.getpid() != results[1].checks["pid"].value
    assert all(r.seconds > 0 for r in results)
    _no_worker_left()


def test_criteria_split_by_count_with_the_first_run_here(monkeypatch):
    # five criteria on three cores: [1 | 2 | 2] in request order, the first
    # run in this process, so what it stores stays in the engine's store,
    # and each further run in one worker
    for number in range(1, 6):
        monkeypatch.setattr(AcceptanceEngine, f"criterion_{number}", _pid_criterion(number))
    with _cores(3):
        results = AcceptanceEngine().run([5, 3, 1, 2, 4]).results
    assert [r.number for r in results] == [5, 3, 1, 2, 4]
    pids = [r.checks["pid"].value for r in results]
    assert pids[0] == os.getpid()
    assert pids[1] == pids[2] != pids[3] == pids[4]
    assert os.getpid() not in pids[1:]
    _no_worker_left()


def test_worker_numerical_error_is_a_fail_row(stand_ins):
    stand_ins.setattr(AcceptanceEngine, "criterion_8", _raising(NumericalError("blew up")))
    with _cores(2):
        report = AcceptanceEngine().run([7, 8])
    assert [r.passed for r in report.results] == [True, False]
    assert report.results[1].detail == "raised NumericalError: blew up"
    assert report.results[1].name == "criterion 8" and report.results[1].checks == {}
    _no_worker_left()


@pytest.mark.parametrize("criterion, line", [
    (_raising(NumericalError("blew up")),
     "criterion  8 [FAIL] criterion 8: raised NumericalError: blew up"),
    (lambda self: CriterionResult(8, "stand-in", {}), "criterion  8 [FAIL] stand-in: no checks"),
], ids=["raises", "no_checks"])
def test_a_criterion_without_a_check_fails(stand_ins, criterion, line):
    # a verdict comes from checks alone, so a criterion that made none fails
    # and its line says why
    stand_ins.setattr(AcceptanceEngine, "criterion_8", criterion)
    with _cores(1):
        report = AcceptanceEngine().run([7, 8])
    assert [r.passed for r in report.results] == [True, False]
    assert not report.all_pass
    assert report.results[1].line().rsplit(" (", 1)[0] == line  # without the seconds


def test_worker_internal_error_reaches_the_caller(stand_ins, capsys):
    stand_ins.setattr(AcceptanceEngine, "criterion_8", _raising(ValueError("not a verdict")))
    with _cores(2):
        with pytest.raises(ValueError, match="not a verdict") as info:
            AcceptanceEngine().run([7, 8])
        assert type(info.value) is ValueError
        _no_worker_left()
        assert main(["acceptance", "--suite", "7,8"]) == 4
    assert "ValueError: not a verdict" in capsys.readouterr().err
    _no_worker_left()


def test_unknown_criterion_is_refused_before_any_fork(stand_ins):
    stand_ins.setattr(AcceptanceEngine, "criterion_7", _raising(AssertionError("ran")))
    with _cores(2), mock.patch.object(parallel.os, "fork") as fork:
        with pytest.raises(ConfigError, match="no criterion numbered 13"):
            AcceptanceEngine().run([7, 13, 8])
    fork.assert_not_called()


def test_an_empty_request_is_refused_and_none_is_the_full_suite(monkeypatch, tmp_path):
    for number in range(1, 13):
        monkeypatch.setattr(AcceptanceEngine, f"criterion_{number}", _pid_criterion(number))
    with _cores(1):
        with pytest.raises(ConfigError, match="no criteria requested"):
            AcceptanceEngine().run([])
        with pytest.raises(ConfigError, match="no criteria requested"):
            run_acceptance(numbers=[], out_dir=tmp_path)
        assert not any(tmp_path.iterdir())
        full = AcceptanceEngine().run(parse_suite("full")).results
        assert [r.number for r in full] == list(range(1, 13))


def test_fork_map_nests_inside_a_worker():
    # criteria 10 and 12 fork their mean values and fields.csv writes from
    # inside the worker chunk of a full suite
    def outer(start, stop):
        return parallel.fork_map(lambda a, b: (start, list(range(a, b)), os.getpid()), 4)

    with _cores(2):
        chunks = parallel.fork_map(outer, 2)
    assert [[part[:2] for part in chunk] for chunk in chunks] == [
        [(0, [0, 1]), (0, [2, 3])], [(1, [0, 1]), (1, [2, 3])]]
    assert len({part[2] for chunk in chunks for part in chunk}) == 4
    _no_worker_left()


def test_fork_map_of_an_empty_range_calls_nothing():
    def fn(start, stop):
        raise AssertionError("called")

    with _cores(2), mock.patch.object(parallel.os, "fork") as fork:
        assert parallel.fork_map(fn, 0) == []
    fork.assert_not_called()


FORKED_RUN_SCRIPT = r"""
from unittest import mock
from crocco_prandtl import parallel
from crocco_prandtl.acceptance import AcceptanceEngine

for cores in (1, 2):
    with mock.patch.object(parallel, "_usable_cores", return_value=cores):
        results = AcceptanceEngine().run([7, 8, 9]).results
    print(repr([(r.number, r.passed, r.detail) for r in results]))
"""


def test_forked_criteria_match_serial_under_either_blas_thread_count():
    # criterion 9 marches the model and samples it (LAPACK and BLAS) in the
    # worker's chunk; OpenBLAS restarts its thread pool there after the fork
    src = str(Path(parallel.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", FORKED_RUN_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs += proc.stdout.splitlines()
    assert len(outputs) == 4 and outputs[0].startswith("[(7, True, ")
    assert len(set(outputs)) == 1, outputs
