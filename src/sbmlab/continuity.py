"""Deterministic regularity machinery: the modulus-criterion series with
certified tails, exponent-condition arithmetic, a dyadic-oscillation Holder
exponent estimator, and the bin-refinement probe separating continuous
(d=1) from locally unbounded (d=2) occupation densities.

The tail function behind the series is

    q(r, h) = C r^{-q} h^{q(1-gamma)}
            + exp(-C r^{(1+beta)/beta} h^{gamma(1+1/beta) - 1/beta})
            + (C r^{-1} h^{1/(1+beta)-gamma})^{C r h^{gamma - 1/(1+beta)}},

summed over dyadic scales h = 2^{-n} K with weight 2^n; the three sums are
geometric (Q_A), doubly exponential (Q_B), and super-geometric (Q_C), with
convergence decided by the signs of

    e_a = 1 - q(1-gamma)   (need < 0),
    e_b = 1/beta - gamma(1+1/beta)   (need > 0, i.e. gamma < beta/(1+beta)),
    delta_c = 1/(1+beta) - gamma     (need > 0).

The modulus sum is G = sum_n g(2^{-n} K) with g(h) = 3 h^gamma; the
tail-sum reading G(m) = sum_{n>=m} g(2^{-n} K) is used for the modulus at
scale 2^{-m} K.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .particles import OccupationFunctional
from .tanaka import histogram_functional

__all__ = [
    "ExponentConditions",
    "check_exponent_conditions",
    "CriterionParams",
    "criterion_violations",
    "SeriesValue",
    "SeriesReport",
    "gs_series",
    "modulus_tail_sum",
    "HolderFit",
    "dyadic_lags",
    "read_field",
    "holder_field_violations",
    "holder_exponent",
    "probe_functionals",
    "unboundedness_probe",
]


@dataclass(frozen=True)
class ExponentConditions:
    beta: float
    gamma: float
    q: float
    beta_in_range: bool
    gamma_positive: bool
    gamma_lt_one_minus_inv_q: bool
    one_minus_inv_q_lt_beta_ratio: bool
    all_ok: bool
    equivalence_a_agrees: bool  # gamma < 1 - 1/q  <=>  1 - q(1-gamma) < 0
    equivalence_b_agrees: bool  # gamma < 1/(1+beta)  <=>  1/beta - gamma(1+1/beta) > 0
    implication_b_holds: bool  # gamma < beta/(1+beta)  =>  the sign condition above


def check_exponent_conditions(beta: float, gamma: float, q: float) -> ExponentConditions:
    """Evaluate the admissibility chain 0 < gamma < 1 - 1/q < beta/(1+beta),
    the two algebraic identities both ways, and the one-directional
    implication from the admissible range to the doubly-exponential series'
    sign condition.

    The sign condition 1/beta - gamma(1+1/beta) > 0 rearranges to
    gamma < 1/(1+beta), which the admissible gamma < beta/(1+beta) implies
    strictly (never the converse: beta/(1+beta) < 1/(1+beta) for beta < 1).

    The inequalities are decided in exact rational arithmetic on the given
    floats: in floating point the two sides of an identity can round to
    opposite sides of a boundary (gamma = 1/3, q = 1.5 gives
    1 - 1/q > gamma but 1 - q(1-gamma) = 0).
    """
    beta_ok = 0.0 < beta < 1.0
    gamma_pos = gamma > 0.0
    b, g, r = Fraction(beta), Fraction(gamma), Fraction(q)
    if q > 0:
        lhs_a = g < 1 - 1 / r
        rhs_a = 1 - r * (1 - g) < 0
        eq_a = lhs_a == rhs_a
    else:
        lhs_a = False
        eq_a = True  # the algebraic rearrangement needs q > 0
    if beta_ok:
        ratio_ok = (q > 0) and (1 - 1 / r < b / (1 + b))
        rhs_b = 1 / b - g * (1 + 1 / b) > 0
        eq_b = (g < 1 / (1 + b)) == rhs_b
        impl_b = (not (g < b / (1 + b))) or rhs_b
    else:
        ratio_ok = False
        eq_b = True
        impl_b = True
    return ExponentConditions(
        beta=beta,
        gamma=gamma,
        q=q,
        beta_in_range=beta_ok,
        gamma_positive=gamma_pos,
        gamma_lt_one_minus_inv_q=lhs_a,
        one_minus_inv_q_lt_beta_ratio=ratio_ok,
        all_ok=beta_ok and gamma_pos and lhs_a and ratio_ok,
        equivalence_a_agrees=eq_a,
        equivalence_b_agrees=eq_b,
        implication_b_holds=impl_b,
    )


@dataclass(frozen=True)
class CriterionParams:
    beta: float
    gamma: float
    q: float
    k_window: float = 1.0  # spatial half-window K
    r: float = 1.0
    c_free: float = 1.0  # the bound's unspecified constant; flags are C-independent
    n_max: int = 64

    def __post_init__(self):
        errs = criterion_violations(self.beta, self.k_window, self.r, self.n_max)
        if errs:
            raise ValueError("; ".join(errs))


def criterion_violations(beta: float, k_window: float, r: float, n_max: int) -> list[str]:
    """Every rule of `CriterionParams` the values break, naming each field;
    empty if they are valid."""
    errs = []
    if not (0.0 < beta < 1.0):
        errs.append(f"beta must lie in (0, 1), got {beta}")
    if not k_window > 0:
        errs.append(f"k_window must be > 0, got {k_window}")
    if not r > 0:
        errs.append(f"r must be > 0, got {r}")
    if n_max < 16:
        errs.append(f"n_max must be >= 16, got {n_max}")
    return errs


@dataclass(frozen=True)
class SeriesValue:
    value: float
    convergent: bool
    certified: bool  # rigorous tail bound established at n_max
    tail_bound: float
    inconclusive: bool  # n_max insufficient to certify; never a silent pass


def modulus_tail_sum(gamma: float, k_window: float, m: int = 0) -> float:
    """G(m) = sum_{n >= m} 3 (2^{-n} K)^gamma in closed form."""
    if gamma <= 0:
        return math.inf
    return 3.0 * (2.0 ** (-m) * k_window) ** gamma / (1.0 - 2.0 ** (-gamma))


def _g_partial(gamma: float, k_window: float, n_max: int) -> tuple[float, float]:
    n = np.arange(n_max + 1)
    terms = 3.0 * (2.0 ** (-n) * k_window) ** gamma
    tail = 3.0 * (2.0 ** (-(n_max + 1)) * k_window) ** gamma / (1.0 - 2.0 ** (-gamma))
    return float(terms.sum()), float(tail)


def _q_a(params: CriterionParams, r: float) -> SeriesValue:
    e_a = 1.0 - params.q * (1.0 - params.gamma)
    prefactor = params.c_free * r ** (-params.q) * params.k_window ** (
        params.q * (1.0 - params.gamma)
    )
    if e_a >= 0:
        return SeriesValue(math.inf, False, True, math.inf, False)
    value = prefactor / (1.0 - 2.0**e_a)
    return SeriesValue(float(value), True, True, 0.0, False)


def _q_b(params: CriterionParams, r: float) -> SeriesValue:
    beta, gamma = params.beta, params.gamma
    e_b = 1.0 / beta - gamma * (1.0 + 1.0 / beta)
    a = (
        params.c_free
        * r ** ((1.0 + beta) / beta)
        * params.k_window ** (gamma * (1.0 + 1.0 / beta) - 1.0 / beta)
    )
    if e_b <= 0:
        return SeriesValue(math.inf, False, True, math.inf, False)
    n = np.arange(params.n_max + 1)
    log_terms = n * math.log(2.0) - a * 2.0 ** (n * e_b)
    partial = float(np.exp(np.clip(log_terms, -745.0, 700.0)).sum())
    # tail: for m >= 1, 2^{nmax+m} exp(-A 2^{m e_b}) <= 2^{nmax} e^{-A} rho^m
    # with A = a 2^{nmax e_b}, rho = 2^{1 - A e_b}; certified when rho < 1.
    big_a = a * 2.0 ** (params.n_max * e_b)
    if big_a * e_b > 1.0:
        rho = 2.0 ** (1.0 - big_a * e_b)
        log_head = params.n_max * math.log(2.0) - big_a
        tail = math.exp(max(log_head, -745.0)) * rho / (1.0 - rho) if log_head > -745 else 0.0
        return SeriesValue(partial, True, True, float(tail), False)
    return SeriesValue(partial, True, False, math.inf, True)


def _q_c(params: CriterionParams, r: float) -> SeriesValue:
    beta, gamma = params.beta, params.gamma
    delta_c = 1.0 / (1.0 + beta) - gamma
    if delta_c <= 0:
        return SeriesValue(math.inf, False, True, math.inf, False)
    k_pow = params.k_window**delta_c
    n = np.arange(params.n_max + 1)
    base = params.c_free / r * k_pow * 2.0 ** (-n * delta_c)
    expo = params.c_free * r / k_pow * 2.0 ** (n * delta_c)
    log_terms = n * math.log(2.0) + expo * np.log(base)
    if np.max(log_terms) > 700.0:
        return SeriesValue(math.inf, True, False, math.inf, True)
    partial = float(np.exp(np.clip(log_terms, -745.0, 700.0)).sum())
    # certified tail when the base has fallen below 1/2 and the exponent grows
    # fast enough: terms <= 2^{n - E_n} with E_n doubling-exponential.
    base_end = params.c_free / r * k_pow * 2.0 ** (-params.n_max * delta_c)
    expo_end = params.c_free * r / k_pow * 2.0 ** (params.n_max * delta_c)
    if base_end <= 0.5 and expo_end * delta_c * math.log(2.0) >= 2.0:
        log_tail = (params.n_max - expo_end) * math.log(2.0)
        tail = math.exp(max(log_tail, -745.0)) if log_tail > -745 else 0.0
        return SeriesValue(partial, True, True, float(tail), False)
    return SeriesValue(partial, True, False, math.inf, True)


@dataclass
class SeriesReport:
    params: CriterionParams
    g_closed: float
    g_partial: float
    g_tail_bound: float
    q_a: SeriesValue
    q_b: SeriesValue
    q_c: SeriesValue
    q_total: float
    r_grid: np.ndarray = field(default=None)
    q_trend: np.ndarray = field(default=None)  # Q(0, r) over r_grid
    q_trend_decreasing: bool = False


def gs_series(params: CriterionParams, r_grid=(1.0, 10.0, 100.0, 1000.0)) -> SeriesReport:
    """Evaluate the modulus sum G (closed form and partial sum with its
    geometric tail) and the three criterion series at params.r, plus the
    Q(0, r) trend over the r grid with monotone-decrease detection."""
    if params.gamma <= 0:
        g_closed = math.inf
        g_partial, g_tail = math.inf, math.inf
    else:
        g_closed = modulus_tail_sum(params.gamma, params.k_window, 0)
        g_partial, g_tail = _g_partial(params.gamma, params.k_window, params.n_max * 8)
    q_a = _q_a(params, params.r)
    q_b = _q_b(params, params.r)
    q_c = _q_c(params, params.r)
    q_total = q_a.value + q_b.value + q_c.value
    r_grid = np.asarray(r_grid, dtype=float)
    trend = np.array(
        [
            _q_a(params, r).value + _q_b(params, r).value + _q_c(params, r).value
            for r in r_grid
        ]
    )
    finite = np.all(np.isfinite(trend))
    decreasing = bool(finite and np.all(np.diff(trend) < 0))
    return SeriesReport(
        params=params,
        g_closed=g_closed,
        g_partial=g_partial,
        g_tail_bound=g_tail,
        q_a=q_a,
        q_b=q_b,
        q_c=q_c,
        q_total=q_total,
        r_grid=r_grid,
        q_trend=trend,
        q_trend_decreasing=decreasing,
    )


# ---------------------------------------------------------------------------
# Holder exponent estimation by dyadic oscillation regression
# ---------------------------------------------------------------------------


@dataclass
class HolderFit:
    exponent: float
    ci_low: float  # the 95% interval of the slope
    ci_high: float
    scales: np.ndarray  # lag values in grid units times dx
    oscillations: np.ndarray

    def covers(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high


def dyadic_lags(lo: float, hi: float) -> list[int]:
    """The lags `holder_exponent` fits on: the powers of two 1..2^29 in [lo, hi]."""
    return [lag for lag in (2**j for j in range(30)) if lo <= lag <= hi]


def read_field(path) -> np.ndarray:
    """The values of a comma-separated field file (the holder kind's
    `holder_input`); ValueError if it does not parse as numbers."""
    return np.atleast_1d(np.loadtxt(path, delimiter=","))


def holder_field_violations(samples, scale_range) -> list[str]:
    """Every rule of `holder_exponent` that a field breaks at the lags of
    scale_range: it must be 1-d with at least 64 values, finite, admit three
    dyadic lags below its size, and not be constant (no oscillation).
    Empty if the field can be fitted."""
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size < 64:
        return [f"need a 1-d field with at least 64 samples, got shape {values.shape}"]
    errs = []
    if not np.all(np.isfinite(values)):
        errs.append("field must be finite")
    elif values.min() == values.max():
        errs.append("degenerate fit: zero oscillation (constant field)")
    lo, hi = scale_range
    if len(dyadic_lags(lo, min(hi, values.size - 1))) < 3:
        errs.append(f"lags {lo:g}..{hi:g} admit fewer than 3 dyadic lags below the field's "
                    f"{values.size} samples")
    return errs


def holder_exponent(samples, scale_range: tuple[int, int] = (1, 64), dx: float = 1.0) -> HolderFit:
    """Least-squares slope of log max-oscillation against log scale over
    dyadic lags within scale_range (in grid units), with its 95% interval.

    The oscillation at lag l is the largest (max - min) over windows of l+1
    consecutive samples.  The slope is invariant under affine rescaling of
    the field.  ValueError for a field it cannot fit
    (`holder_field_violations`).
    """
    values = np.asarray(samples, dtype=float)
    errs = holder_field_violations(values, scale_range)
    if errs:
        raise ValueError("; ".join(errs))
    lo, hi = scale_range
    lags = dyadic_lags(lo, min(hi, values.size - 1))
    osc = []
    for lag in lags:
        windows = np.lib.stride_tricks.sliding_window_view(values, lag + 1)
        osc.append(float((windows.max(axis=1) - windows.min(axis=1)).max()))
    osc = np.asarray(osc)
    log_h = np.log(np.asarray(lags, dtype=float) * dx)
    log_w = np.log(osc)
    slope, intercept = np.polyfit(log_h, log_w, 1)
    resid = log_w - (slope * log_h + intercept)
    dof = len(lags) - 2
    s2 = float(resid @ resid) / dof
    sxx = float(np.sum((log_h - log_h.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx)
    from scipy.stats import t as student_t  # slow to import; only this fit needs it

    tq = student_t.ppf(0.975, dof)
    return HolderFit(
        exponent=float(slope),
        ci_low=float(slope - tq * stderr),
        ci_high=float(slope + tq * stderr),
        scales=np.asarray(lags, dtype=float) * dx,
        oscillations=osc,
    )


# ---------------------------------------------------------------------------
# d=1 vs d=2 occupation-density refinement probe
# ---------------------------------------------------------------------------


def _probe_histogram(dim: int, window, h: float) -> OccupationFunctional:
    """The occupation histogram of bin width h over the window ((lo, hi) in
    d=1, ((xlo, xhi), (ylo, yhi)) in d=2); bins are closed on the left, and
    particles outside every bin are not counted."""
    if not h > 0:
        raise ValueError(f"bin width must be > 0, got {h}")
    if dim == 1:
        return histogram_functional(float(window[0]), float(window[1]), h)
    (xlo, xhi), (ylo, yhi) = window
    ex, ey = (np.arange(lo, hi + h * 0.5, h) for lo, hi in window)
    nx, ny = ex.size - 1, ey.size - 1

    def sum_fn(points: np.ndarray, weight: float) -> np.ndarray:
        ix = ex.searchsorted(points[:, 0], side="right") - 1
        iy = ey.searchsorted(points[:, 1], side="right") - 1
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        counts = np.bincount(ix[inside] * ny + iy[inside], minlength=nx * ny)
        return weight * counts

    return OccupationFunctional(
        name=f"histogram2d:{xlo:g}:{xhi:g}:{ylo:g}:{yhi:g}:{h:g}",
        sum_fn=sum_fn,
        width=nx * ny,
        meta={"kind": "histogram2d", "edges": (ex, ey)},
    )


def probe_functionals(dim: int, resolutions, window) -> list[OccupationFunctional]:
    """The occupation histograms `unboundedness_probe` reads, one per bin
    width, to register before simulate."""
    return [_probe_histogram(dim, window, h) for h in resolutions]


def unboundedness_probe(recorder, resolutions, window) -> list[tuple[float, float]]:
    """For each bin width, the maximum over bins of occupation mass per bin
    area inside the window at t_end, read from the histograms of
    `probe_functionals` (integrated on the step grid).

    A continuous occupation density (d=1) stabilizes under refinement; the
    locally unbounded d=2 density goes on growing as bins shrink.  The
    unbounded2d kind runs the probe in either dimension, d=1 being the
    control."""
    dim = recorder.params.dim
    out = []
    for h in resolutions:
        total = recorder.totals.get(_probe_histogram(dim, window, h).name)
        if total is None:
            raise UsageError(f"no probe histogram of width {h:g} was registered before "
                             "simulate; register probe_functionals")
        occ = total.values
        if not occ.any():
            raise ValueError("window has zero occupation")
        out.append((float(h), float(occ.max() / h**dim)))
    return out
