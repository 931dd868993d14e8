"""Fixtures shared by the test modules."""

import pytest

from crocco_prandtl.acceptance import AcceptanceEngine


@pytest.fixture(scope="session")
def engine():
    """One acceptance engine for the session, so the gate's strip solves and
    model runs are made once and shared by every module that runs criteria,
    as in one `acceptance` invocation."""
    return AcceptanceEngine()
