"""Shared fixtures: session-scoped particle runs reused across test modules
(single-CPU budget), and the acceptance report collector."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from sbmlab.measures import dirac
from sbmlab.particles import OccupationFunctional, make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.tanaka import (
    histogram_functional,
    interval_indicator_functional,
    psi0_event_functional,
    psi0_power_functional,
    tanaka_event_functional,
    tanaka_panel_functional,
)

ACCEPTANCE_REPORT = Path(__file__).with_name("acceptance_report.txt")


def per_particle_functional(name: str, fn, width: int = 1) -> OccupationFunctional:
    """An occupation functional of per-particle values fn(positions), of
    shape (n,) or (n, width): <X_s, f> is the particle mass times their sum
    down each column."""

    def state_fn(state) -> np.ndarray:
        vals = np.asarray(fn(state.positions))
        if vals.ndim == 1:
            vals = vals[:, None]
        return state.mass_per_particle * vals.sum(axis=0)

    return OccupationFunctional(name, state_fn, width)


@pytest.fixture(scope="session")
def panel_grid():
    return np.linspace(-1.0, 1.0, 41)


@pytest.fixture(scope="session")
def small_recorders(panel_grid):
    """120 replicas at N=500, t=0.3, beta=0.5 with the full functional set:
    Tanaka panels at lambda 0.5 and 2 with their martingale terms, a
    histogram, psi0^1.5 and the interval indicator on [-0.1, 0.1], and the
    interval martingale's psi0 event sum; every path is kept."""
    params = make_params(0.5, 500, 0.3, snapshot_stride=10**9)
    mu = dirac(0.0)
    fns = [
        tanaka_panel_functional(0.5, panel_grid),
        tanaka_panel_functional(2.0, panel_grid),
        tanaka_event_functional((0.5, 2.0), panel_grid),
        histogram_functional(-8.0, 8.0, 0.025),
        psi0_power_functional(0.5, -0.1, 0.1, 0.5),
        interval_indicator_functional(-0.1, 0.1),
        psi0_event_functional(0.5, -0.1, 0.1),
    ]
    return mu, params, [simulate(mu, params, fns, RngStream(901, i)) for i in range(120)]


@pytest.fixture(scope="session")
def bare_recorders():
    """200 bare replicas (event logs and masses only) at N=500, t=0.5."""
    params = make_params(0.5, 500, 0.5, snapshot_stride=10**9)
    mu = dirac(0.0)
    return mu, params, [simulate(mu, params, [], RngStream(902, i)) for i in range(200)]


_report_started = False


def record_criterion(number: int, passed: bool, detail: str, soft: bool = False) -> None:
    """One pass/fail line per acceptance criterion, printed and persisted.

    The first line of a session starts the report afresh, so a session that
    runs no acceptance test leaves the committed report as it is."""
    global _report_started
    if soft:
        status = "REPORTED-PASS" if passed else "REPORTED-FAIL"
    else:
        status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {detail}"
    print(line)
    with ACCEPTANCE_REPORT.open("a" if _report_started else "w") as fh:
        fh.write(line + "\n")
    _report_started = True
