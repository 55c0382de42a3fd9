"""Shared fixtures; the brute-force oracles live in ``oracles.py``."""

from __future__ import annotations

import time

import pytest

import systola as sy


# -- fixture complexes -------------------------------------------------------

@pytest.fixture(scope="session")
def rp2():
    return sy.gen_named("rp2-six")


@pytest.fixture(scope="session")
def torus7():
    return sy.gen_named("torus-seven")


@pytest.fixture(scope="session")
def rp2_class(rp2):
    return sy.h1_basis(rp2)[0]


@pytest.fixture(scope="session")
def torus_classes(torus7):
    return sy.h1_basis(torus7)


@pytest.fixture(scope="session")
def quotient23():
    return sy.gen_projective_space(2, 3)


@pytest.fixture(scope="session")
def grid_report():
    """The full verification grid, measured once per session."""
    t0 = time.monotonic()
    report = sy.verify_grid(4, 8, seed=0)
    elapsed = time.monotonic() - t0
    return report, elapsed
