"""Spectrally positive stable-process side: sup/inf tail experiments on
skeleton paths of i.i.d. stable increments, and the interval time change
T(t) behind the harness `timechange` kind's check that the interval
martingale is a time-changed stable process.

The time change is T(t) = int_0^t <X_s, psi0^(1+beta)> ds for the interval
integrand psi0 (supported on [x1, x2], bounded by 2), and the interval
martingale is Z_t = M_t(psi0).  Both are read at t = t_end as totals that
simulate forms a block of steps at a time, with no event log and no table
in time: T the trapezoid integral on the particle step grid, Z the exact
sum over the branch events.  The exponential martingale of the jump measure
gives the product identity E[exp(-theta Z_t - theta^(1+beta) T(t))] = 1,
reported alongside the factored curve comparison E[exp(-theta Z_t)] vs
E[exp(theta^(1+beta) T(t))], which treats the random clock as independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import raise_violations
from .particles import PathRecorder
from .rng import RngStream, StableParams, sample_stable_increment
from .tanaka import interval_violations

__all__ = [
    "inf_tail_oracle",
    "inf_tail_probability",
    "sup_smalljump_probability",
    "SmallJumpBoundReport",
    "calibrate_smalljump_bound",
    "compute_T",
    "interval_martingale",
]


# paths drawn per batch; the batches fix the order of the draws on the stream
_CHUNK = 4000


def _path_batches(stream: RngStream, beta: float, replicas: int, t: float, steps: int):
    """The increments of `replicas` paths of `steps` steps over [0, t], as
    (paths, steps) matrices of at most _CHUNK paths each."""
    params = StableParams(alpha=1.0 + beta)
    for done in range(0, replicas, _CHUNK):
        n = min(_CHUNK, replicas - done)
        yield sample_stable_increment(stream, params, t / steps, size=n * steps).reshape(n, steps)


def inf_tail_oracle(beta: float, t: float, x) -> np.ndarray:
    """Exact P(inf_{u<=t} L_u < -x) from first-passage theory.

    -L is spectrally negative with Laplace exponent theta^(1+beta), so the
    first passage of L below -x takes time x^(1+beta) * S where S is a
    standard positive stable variable of index 1/(1+beta); the probability is
    the stable CDF at t * x^(-(1+beta)).  Serves as the independent oracle
    for the simulated inf-tail and carries the (1+beta)/beta exponent in
    log(-log p) coordinates at depth.
    """
    from scipy.stats import levy_stable

    alpha = 1.0 + beta
    gam = 1.0 / alpha
    sigma = math.cos(0.5 * math.pi * gam) ** (1.0 / gam)
    x = np.asarray(x, dtype=float)
    vals = levy_stable(gam, 1.0, scale=sigma).cdf(t * x ** (-alpha))
    return vals if vals.ndim else float(vals)


def inf_tail_probability(
    beta: float,
    t: float,
    x: float,
    replicas: int,
    stream: RngStream,
    steps: int = 256,
) -> float:
    """Empirical P(inf_{u<=t} L_u < -x) over path replicas."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    hits = 0
    for inc in _path_batches(stream, beta, replicas, t, steps):
        hits += int((np.cumsum(inc, axis=1).min(axis=1) < -x).sum())
    return hits / replicas


def sup_smalljump_probability(
    beta: float,
    t: float,
    x: float,
    y: float,
    replicas: int,
    stream: RngStream,
    steps: int = 256,
) -> float:
    """Empirical P(sup_u L_u 1{jumps up to u <= y} >= x) with the per-step
    increment as the jump proxy."""
    if x <= 0 or y <= 0:
        raise ValueError(f"x and y must be > 0, got ({x}, {y})")
    hits = 0
    for inc in _path_batches(stream, beta, replicas, t, steps):
        jump_ok = np.maximum.accumulate(inc, axis=1) <= y
        hits += int(((np.cumsum(inc, axis=1) >= x) & jump_ok).any(axis=1).sum())
    return hits / replicas


@dataclass
class SmallJumpBoundReport:
    c_fitted: float
    calibration: list[tuple]  # (t, x, y, p_hat)
    holdout: list[tuple]  # (t, x, y, p_hat, bound)
    violations: int


def calibrate_smalljump_bound(
    beta: float,
    calibration_grid,
    holdout_grid,
    replicas: int,
    stream: RngStream,
    steps: int = 256,
) -> SmallJumpBoundReport:
    """Fit the free constant of the bound p <= (C t / (x y^beta))^(x/y) on a
    calibration grid (smallest C making the bound hold there), then count
    violations on a disjoint holdout grid."""
    cal = []
    c_fit = 0.0
    for (t, x, y) in calibration_grid:
        p = sup_smalljump_probability(beta, t, x, y, replicas, stream, steps)
        cal.append((t, x, y, p))
        if p > 0:
            c_fit = max(c_fit, p ** (y / x) * x * y**beta / t)
    if c_fit == 0.0:
        c_fit = 1.0  # nothing observed; any positive constant works
    hold = []
    violations = 0
    for (t, x, y) in holdout_grid:
        p = sup_smalljump_probability(beta, t, x, y, replicas, stream, steps)
        bound = (c_fit * t / (x * y**beta)) ** (x / y)
        hold.append((t, x, y, p, bound))
        if p > bound:
            violations += 1
    return SmallJumpBoundReport(
        c_fitted=c_fit, calibration=cal, holdout=hold, violations=violations
    )


# ---------------------------------------------------------------------------
# Time change of the interval martingale
# ---------------------------------------------------------------------------


def compute_T(recorder: PathRecorder, lam: float, x1: float, x2: float) -> float:
    """T(t) at t_end: the occupation integral of psi0^(1+beta).

    Requires psi0_power_functional(lam, x1, x2, beta) registered before
    simulate, whose total it reads.  Nondecreasing in t: a shorter run on
    the same stream and step is a prefix of a longer one."""
    if x1 == x2:
        return 0.0
    raise_violations(interval_violations(x1, x2))
    return float(recorder.find_total("psi0_power", lam=lam, x1=x1, x2=x2).values[0])


def interval_martingale(recorder: PathRecorder, lam: float, x1: float, x2: float) -> float:
    """Z_t(x1, x2) = M_t(psi0) at t_end: exact branching-event sum of psi0.

    Requires psi0_event_functional(lam, x1, x2) registered before simulate,
    whose total it reads."""
    if x1 == x2:
        return 0.0
    raise_violations(interval_violations(x1, x2))
    return float(recorder.find_total("psi0_event", lam=lam, x1=x1, x2=x2).values[0])
