"""Fixtures shared by the unit tests."""

import pytest

import toptrap.integrate


@pytest.fixture
def no_stepping(monkeypatch):
    """Make any ODE solve fail loudly, so an over-long one must be refused before stepping."""

    def refuse(*args, **kwargs):
        raise AssertionError("ODE stepping started before the step bound was checked")

    monkeypatch.setattr(toptrap.integrate, "_integrate_dp45", refuse)
