"""Acceptance gate: one test per numbered criterion.

Tolerances are pinned inside crocco_prandtl.acceptance; these tests only
run each criterion and assert its verdict, so a failure here reproduces
the exact line the `acceptance` CLI verb would print.  The engine, and
with it its solve store, is the session-scoped `engine` fixture of
conftest.py, so problems, solves and model runs are shared across criteria
as in one `acceptance` invocation.
"""

import numpy as np
import pytest

from crocco_prandtl.acceptance import AcceptanceEngine, parse_suite, run_acceptance
from crocco_prandtl.crocco import CroccoProblem
from crocco_prandtl.errors import ConfigError


@pytest.fixture(scope="module")
def results():
    return {}


def check(engine, results, number):
    if number not in results:
        results[number] = engine.run([number]).results[0]
    res = results[number]
    print(res.line())
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


def test_parse_suite_accepts_full_and_lists():
    assert parse_suite("full") == list(range(1, 13))
    assert parse_suite("1,4,7") == [1, 4, 7]
    with pytest.raises(ConfigError):
        parse_suite("0,5")
    with pytest.raises(ConfigError):
        parse_suite("nope")
    with pytest.raises(ConfigError):
        parse_suite("")


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
