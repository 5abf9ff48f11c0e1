"""Fixtures shared by every test module."""

import pytest

import arcscat.scattering as scattering


@pytest.fixture(autouse=True)
def no_reused_discretization(monkeypatch):
    """Start every test with an empty discretization memo, so that no
    test solves with an S another test assembled (the pool and J0/Y0
    tests patch ``specfun`` and need fresh builds)."""
    monkeypatch.setattr(scattering, "_last", None)
