"""Fixtures shared by every test module."""

import tracemalloc

import pytest

import arcscat.scattering as scattering


@pytest.fixture(autouse=True)
def no_reused_discretization(monkeypatch):
    """Start every test with an empty discretization memo, so that no
    test solves with an S another test assembled (the J0/Y0 and chunk
    tests patch ``specfun`` and need fresh builds)."""
    monkeypatch.setattr(scattering, "_last", None)


@pytest.fixture
def allocation_peak():
    """A function that calls fn() and returns the peak of the bytes it
    held allocated at once, as ``tracemalloc`` counts them."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
