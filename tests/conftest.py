"""Session setup: the fixture self-test must pass before anything else runs."""

import pytest

from kwl import formula
from kwl.fixtures import verify_fixtures


@pytest.fixture(scope="session", autouse=True)
def fixture_claims():
    """Checked textual claims about the bundled models; aborts the run on failure."""
    return verify_fixtures()


@pytest.fixture
def nodes_built(monkeypatch):
    """A list whose length is the number of formula nodes built since."""
    built = []

    def counting(cls):
        built.append(None)
        return object.__new__(cls)

    monkeypatch.setattr(formula, "_new", counting)
    return built


@pytest.fixture
def nodes_requested(monkeypatch):
    """A list whose length is the number of formula constructor calls since,
    whether they built a node or found it interned."""
    requested = []
    interned = formula.Formula.__new__

    def counting(cls, *fields, **named):
        requested.append(None)
        return interned(cls, *fields, **named)

    monkeypatch.setattr(formula.Formula, "__new__", counting)
    return requested
