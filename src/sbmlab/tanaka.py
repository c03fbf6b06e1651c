"""Local-time estimation and the Tanaka-type decomposition.

Reconstructs the local time L(t, x) from a particle path three ways that the
test suite cross-checks:

  * kernel route: L_hat = occupation integral of a Gaussian kernel centered
    at x (a smoothed occupation density);
  * resolvent route (the Tanaka identity): for any lambda > 0,
        L = <X_0, G^x> - <X_t, G^x> + lambda * int_0^t <X_s, G^x> ds + M_t(G^x),
    where M_t is the branching-event martingale sum;
  * derivative route: the same combination with the derivative kernel gives
    the spatial-derivative field H(t, x) of the recentered local time
    Z(t, x) = L(t, x) - <X_0, G^x>, checked against Z by the fundamental
    theorem of calculus (ftc_check).

Everything is read at t = t_end, the recorder's horizon: every time
integral is the total of an occupation functional registered before
simulate (a Tanaka panel or a histogram), integrated on the step grid as one
weighted sum over each block of steps' sorted positions, and every
martingale sum M_t the total of an event functional, summed over each
block's events; the only positions read afterwards are those at t_end.
<X_0, .> is `FiniteMeasure.integrate` of one kernel row per panel point,
M_t(g^x) the odd half of a Tanaka event panel (`martingale_increments`
reads it too), and a = sqrt(2 lambda) `kernels.resolvent_rate`.
Each reader finds its total with `PathRecorder.find_total`, by meta kind and
fields or, for a panel that holds lambda and a histogram fit for a
bandwidth, by a test on the meta.
A reading at an earlier t is a run simulated to that t.  The decomposition
is evaluated on the whole panel at once (`tanaka_panel_terms`), so a point
of interest must be a panel point; `tanaka_terms` is the one-point
reference the tests compare against, which sums over the kept event log.

One Tanaka panel may carry several lambdas: `exp_kernel_sums` takes an
array of rates and runs one sort-and-search pass for all of them, each
lambda's columns bit for bit those of a panel of its own.  Its sums are
formed around the panel midpoint without a subtraction, so they are exact
to rounding at every rate and spread.

The interval functionals of the time change (psi0^(1+beta) and the
indicator of [x1, x2]) read only the slice of a block's sorted points
inside [x1, x2], found by two binary searches; psi0 is zero outside.

Derivative orientation: d/dx <mu, G_lambda(. - x)> = <mu, g_lambda(x - .)>,
so every derivative-route kernel evaluates g_lambda with arguments reversed
(see kernels module note); the even G is unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, UsageError
from .kernels import bandwidth_violations, g_lambda, green_closed, resolvent_rate
from .measures import FiniteMeasure
from .particles import (
    EventFunctional,
    OccupationFunctional,
    PathRecorder,
    stable_order,
)

__all__ = [
    "exp_kernel_sums",
    "exp_kernel_violations",
    "LocalTimeEstimate",
    "TanakaDecomposition",
    "PanelDecomposition",
    "tanaka_panel_functional",
    "tanaka_event_functional",
    "histogram_functional",
    "psi0",
    "psi0_power_functional",
    "psi0_event_functional",
    "interval_indicator_functional",
    "PANEL_TOL",
    "panel_index",
    "estimate_local_time",
    "tanaka_terms",
    "tanaka_panel_terms",
    "ftc_check",
    "martingale_increments",
    "increment_clock_weights",
]


# ---------------------------------------------------------------------------
# Fast exponential-kernel sums.  For sorted centers xs and points y with
# weights w, both
#     sum_i w_i * exp(-a |y_i - x_j|)            (even kernel, for G)
#     sum_i w_i * (-sign(x_j - y_i)) exp(-a |.|) (odd kernel, for dG/dx)
# factor through sums of w * exp(+-a (y - c)) over the points between
# consecutive centers, costing O(n log n) total instead of O(n * len(xs))
# exponentials.
# ---------------------------------------------------------------------------


_SIGNS = np.array([1.0, -1.0])
_EXP_BOUND = 700.0  # e^709.78 is the largest float; e^9.78 ~ 17700 bounds the weights' sum


def exp_kernel_violations(rates, xs) -> list[str]:
    """The rule of `exp_kernel_sums`, one line per rate a that breaks it: a
    times the half-width of the centers xs must stay below _EXP_BOUND."""
    half = 0.5 * (xs[-1] - xs[0]) if len(xs) else 0.0
    return [f"rate a = {r:g} on centers of half-width {half:g}: a * half-width = {r * half:g} "
            f"is not below {_EXP_BOUND:g}, past which e^(a (y - c)) around their midpoint c "
            "overflows" for r in np.atleast_1d(rates) if not r * half < _EXP_BOUND]


def exp_kernel_sums(y: np.ndarray, weights, a, xs: np.ndarray, presorted: bool = False):
    """Returns (even_sums, odd_sums) of the exponential kernel against
    weighted points at the centers xs (sorted ascending); odd_sums uses the
    derivative orientation -sign(x - y) exp(-a |x - y|) with points exactly
    at x contributing 0.

    `a` is one rate or a 1-D array of k rates.  With an array both sums are
    (k, len(xs)) arrays, and row r is bit for bit the call at the rate a[r]:
    the points are sorted and searched once for every rate.

    The sorted points fall into segments: below x_0, at x_j, strictly
    between x_j and x_{j+1}, and above the last center.  Every exponent is
    taken from the centers' midpoint c, and each segment is summed once, of
    w e^{a(y-c)} and of w e^{-a(y-c)} (`np.add.reduceat`).  The sum below
    x_j is e^{-a(x_j-c)} times a prefix over the segments of the first, and
    the sum above it e^{a(x_j-c)} times a suffix of the second, so no result
    subtracts: the sums are exact to rounding at every rate and spread.  A
    term that overflows lies in an outer segment that no result reads, so
    overflow is ignored there; NumericsError is raised when a returned value
    is not finite, which happens once a times the centers' half-width
    exceeds about 709 (`exp_kernel_violations`)."""
    rates = np.asarray(a, dtype=float)
    if rates.ndim > 1:
        raise ValueError(f"a must be a rate or a 1-D array of rates, got shape {rates.shape}")
    m = xs.size
    if (xs[1:] < xs[:-1]).any():
        raise ValueError("the centers xs must be sorted ascending")
    if y.size == 0 or m == 0:
        return np.zeros(rates.shape + (m,)), np.zeros(rates.shape + (m,))
    w = np.asarray(weights, dtype=float)
    if w.ndim:
        w = np.broadcast_to(w, y.shape)
    if not presorted:
        order, y = stable_order(y)
        if w.ndim:
            w = w[order]
    starts = np.zeros(2 * m + 1, dtype=np.intp)
    starts[1::2] = y.searchsorted(xs, side="left")  # count of y < x_j
    starts[2::2] = y.searchsorted(xs, side="right")  # count of y <= x_j
    c = 0.5 * (xs[0] + xs[-1])
    signed = np.multiply.outer(_SIGNS, rates[..., None])  # (+a, -a); (-1.0) * a is -a exactly
    with np.errstate(over="ignore", invalid="ignore"):
        # one zero pads the terms, so that a segment may start at y.size
        padded = np.zeros(signed.shape[:-1] + (y.size + 1,))
        terms = padded[..., :-1]
        np.multiply(signed, y - c, out=terms)
        np.exp(terms, out=terms)
        terms *= w
        sums = np.add.reduceat(padded, starts, axis=-1)
    sums[..., :-1][..., starts[:-1] == starts[1:]] = 0.0  # reduceat gave t[i] if empty
    pos, neg = sums  # per segment, of w e^{a(y-c)} and of w e^{-a(y-c)}
    exp_neg, exp_pos = np.exp(-signed * (xs - c))  # e^{-a(x-c)}, e^{a(x-c)}
    below = exp_neg * pos.cumsum(axis=-1)[..., 0:-1:2]  # y < x_j: segments 0..2j
    above = exp_pos * neg[..., ::-1].cumsum(axis=-1)[..., -3::-2]  # y > x_j: 2j+2..2m
    even = below + above
    even += exp_neg * pos[..., 1::2]  # y == x_j: segment 2j+1
    odd = above - below  # -sign(x-y): -1 for y<x, +1 for y>x, 0 at x
    # a non-finite value in a result makes the totals' sum non-finite
    if not math.isfinite(np.add.reduce(even, axis=None) + np.add.reduce(odd, axis=None)):
        finite = np.atleast_2d(np.isfinite(even) & np.isfinite(odd)).all(axis=-1)  # per rate
        if not finite.all():
            bad = np.atleast_1d(rates)[~finite]
            raise NumericsError("exponential-kernel sums are not finite: " + "; ".join(
                exp_kernel_violations(bad, xs) or ["the points or weights are not finite"]))
    return even, odd


def _as_1d(positions: np.ndarray) -> np.ndarray:
    if positions.ndim != 1:
        raise UsageError("Tanaka machinery is defined for d=1 recorders only")
    return positions


# ---------------------------------------------------------------------------
# Registered functionals
# ---------------------------------------------------------------------------


def _panel_rates(lams, xs) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The distinct lambdas of a panel as a tuple, the panel points as an
    array, and the kernel rates a = sqrt(2 lambda)."""
    lams = tuple(float(lam) for lam in np.atleast_1d(lams))
    if not lams or len(set(lams)) != len(lams):
        raise ValueError(f"a panel needs one or more rates and no duplicate rates, got {lams}")
    return lams, np.asarray(xs, dtype=float), np.array([resolvent_rate(lam) for lam in lams])


def tanaka_panel_functional(lams, xs) -> OccupationFunctional:
    """Panel accumulator of <X_s, G_lambda(.-x_j)> and <X_s, g_lambda(x_j-.)>
    for all panel points, at one lambda or at each of several distinct ones.

    One kernel-sum pass over a block's sorted positions serves every lambda.  The
    values hold one block per lambda, in the order given, each stacked
    [G panel, derivative panel]; a single lambda's panel is named
    `tanaka_panel:<lam>`."""
    lams, xs, a = _panel_rates(lams, xs)
    a_col = a[:, None]

    def sum_fn(y: np.ndarray, weight: float) -> np.ndarray:
        even, odd = exp_kernel_sums(_as_1d(y), weight, a, xs, presorted=True)
        return np.concatenate((even / a_col, odd), axis=1).ravel()

    return OccupationFunctional(
        name="tanaka_panel:" + ",".join(f"{lam:g}" for lam in lams),
        sum_fn=sum_fn,
        width=2 * xs.size * len(lams),
        meta={"kind": "tanaka_panel", "lams": lams, "xs": xs},
    )


def tanaka_event_functional(lams, xs) -> EventFunctional:
    """The martingale terms M_t(G^x) and M_t(g(x - .)) at every panel point:
    per lambda, the even and odd exponential-kernel sums over the branch
    events weighted by their net masses (G = even / a), stacked like
    `tanaka_panel_functional`'s blocks.  One `exp_kernel_sums` call per block
    of steps serves every lambda.  The moments kind registers one at the
    pair endpoints for `martingale_increments`."""
    lams, xs, a = _panel_rates(lams, xs)

    def sum_fn(y: np.ndarray, net: np.ndarray) -> np.ndarray:
        even, odd = exp_kernel_sums(_as_1d(y), net, a, xs)
        return np.concatenate((even, odd), axis=1).ravel()

    return EventFunctional(
        name="tanaka_event:" + ",".join(f"{lam:g}" for lam in lams),
        sum_fn=sum_fn,
        width=2 * xs.size * len(lams),
        meta={"kind": "tanaka_event", "lams": lams, "xs": xs},
    )


def histogram_functional(lo: float, hi: float, bin_width: float) -> OccupationFunctional:
    """Binned occupation accumulator: <X_s, 1_bin> for fixed bins on [lo, hi].

    A cheap route to the kernel local-time estimate: the occupation mass per
    bin is smoothed once at estimate time, with positions quantized to bin
    centers (keep bin_width well below the target bandwidth).  Bins are
    closed on the left; particles outside [lo, hi) are not counted.
    """
    edges = np.arange(lo, hi + bin_width * 0.5, bin_width)
    centers = 0.5 * (edges[1:] + edges[:-1])

    def sum_fn(y: np.ndarray, weight: float) -> np.ndarray:
        idx = _as_1d(y).searchsorted(edges)
        return weight * (idx[1:] - idx[:-1])

    return OccupationFunctional(
        name=f"histogram:{lo:g}:{hi:g}:{bin_width:g}",
        sum_fn=sum_fn,
        width=centers.size,
        meta={"kind": "histogram", "edges": edges, "centers": centers, "bin_width": bin_width,
              "window": [lo, hi]},
    )


def _psi0_values(a: float, x1: float, x2: float, y: np.ndarray) -> np.ndarray:
    """g_lambda(y - x2) - g_lambda(y - x1) with a = sqrt(2 lambda), spelled
    out so that a is computed once: psi0 at points of [x1, x2]."""
    d2, d1 = y - x2, y - x1
    return -np.sign(d2) * np.exp(-a * np.abs(d2)) - -np.sign(d1) * np.exp(-a * np.abs(d1))


def psi0(lam: float, x1: float, x2: float, y):
    """Interval integrand (g_lambda(y-x2) - g_lambda(y-x1)) 1_[x1,x2](y);
    nonnegative and bounded by 2.  Evaluated at every point of y (the event
    sums use it, and the tests take it as the reference)."""
    a = resolvent_rate(lam)
    y = np.asarray(y, dtype=float)
    inside = (y >= x1) & (y <= x2)
    return _psi0_values(a, x1, x2, y) * inside


def _inside(y: np.ndarray, x1: float, x2: float) -> np.ndarray:
    """The sorted (d=1) points of [x1, x2]: a contiguous slice."""
    y = _as_1d(y)
    return y[y.searchsorted(x1, side="left") : y.searchsorted(x2, side="right")]


def psi0_power_functional(lam: float, x1: float, x2: float, beta: float) -> OccupationFunctional:
    """Accumulator of <X_s, psi0^(1+beta)>: the stable time change T(t).

    psi0 is zero outside [x1, x2], so it is evaluated only on the slice of
    the block's sorted points inside."""
    a = resolvent_rate(lam)
    if not x1 <= x2:
        raise ValueError(f"need x1 <= x2, got ({x1}, {x2})")
    power = 1.0 + beta

    def sum_fn(y: np.ndarray, weight: float) -> np.ndarray:
        return weight * np.sum(_psi0_values(a, x1, x2, _inside(y, x1, x2)) ** power, keepdims=True)

    return OccupationFunctional(
        name=f"psi0pow:{lam:g}:{x1:g}:{x2:g}",
        sum_fn=sum_fn,
        width=1,
        meta={"kind": "psi0_power", "lam": lam, "x1": x1, "x2": x2, "beta": beta},
    )


def psi0_event_functional(lam: float, x1: float, x2: float) -> EventFunctional:
    """The interval martingale Z_t = M_t(psi0): the sum of psi0(y) * net_mass
    over the branch events, psi0 evaluated at every event location; without
    BLAS, whose thread pool slowed a one-worker timechange run by a third."""
    resolvent_rate(lam)  # the rule on lambda
    if not x1 <= x2:
        raise ValueError(f"need x1 <= x2, got ({x1}, {x2})")
    return EventFunctional(
        name=f"psi0event:{lam:g}:{x1:g}:{x2:g}",
        sum_fn=lambda y, net: np.sum(psi0(lam, x1, x2, y) * net),
        meta={"kind": "psi0_event", "lam": lam, "x1": x1, "x2": x2},
    )


def interval_indicator_functional(x1: float, x2: float) -> OccupationFunctional:
    """Accumulator of <X_s, 1_[x1,x2]>: the occupation mass of the interval,
    i.e. the exact integral of the local time over [x1, x2]."""
    if not x1 <= x2:
        raise ValueError(f"need x1 <= x2, got ({x1}, {x2})")

    def sum_fn(y: np.ndarray, weight: float) -> np.ndarray:
        return np.array([weight * _inside(y, x1, x2).size])

    return OccupationFunctional(
        name=f"interval:{x1:g}:{x2:g}",
        sum_fn=sum_fn,
        width=1,
        meta={"kind": "interval", "x1": x1, "x2": x2},
    )


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

# Two panel points closer than this are the same point: linspace grids are
# off by a few ulps, and a point this close to a grid point is not added.
PANEL_TOL = 1e-9


def panel_index(xs: np.ndarray, x: float) -> int:
    """Index of the panel point at x (within PANEL_TOL); UsageError when x is
    not a panel point."""
    dist = np.abs(np.asarray(xs) - x)
    if dist.size == 0 or dist.min() > PANEL_TOL:
        raise UsageError(f"x={x} is not a point of the registered panel; add it to the panel")
    return int(np.argmin(dist))


def _panel_block(recorder: PathRecorder, kind: str, lam: float, xs=None):
    """lam's block [G panel, derivative panel] of the total of the registered
    panel of the given kind (occupation or event) that holds lam, on the
    points xs if given, and the panel's points."""
    total = recorder.find_total(kind, lambda m: lam in m["lams"]
                                and (xs is None or np.array_equal(m["xs"], xs)))
    width = 2 * total.meta["xs"].size
    start = width * total.meta["lams"].index(lam)
    return total.values[start : start + width], total.meta["xs"]


# ---------------------------------------------------------------------------
# Local time estimation
# ---------------------------------------------------------------------------


@dataclass
class LocalTimeEstimate:
    values: np.ndarray
    warnings: list[str] = field(default_factory=list)


def estimate_local_time(recorder: PathRecorder, x_grid, bandwidth: float) -> LocalTimeEstimate:
    """Kernel-smoothed occupation density on x_grid at t_end.

    Reads a registered histogram with bins of at most bandwidth/4 that covers
    x_grid with a 5-bandwidth margin (positions quantized to bin centers),
    integrated on the step grid; without one, UsageError.
    """
    if violations := bandwidth_violations(bandwidth):
        raise ValueError(violations[0])
    x_grid = np.asarray(x_grid, dtype=float)
    warnings = []
    spacing = float(np.min(np.diff(x_grid))) if x_grid.size > 1 else math.inf
    if bandwidth < spacing:
        warnings.append(
            f"bandwidth {bandwidth:g} below x-grid resolution {spacing:g}"
        )
    hist = recorder.find_total("histogram", lambda m: (
        np.max(np.diff(m["edges"])) <= bandwidth / 4 + 1e-12
        and m["edges"][0] <= x_grid.min() - 5 * bandwidth
        and m["edges"][-1] >= x_grid.max() + 5 * bandwidth))
    norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))
    d = (x_grid[:, None] - hist.meta["centers"][None, :]) / bandwidth
    values = norm * (np.exp(-0.5 * d * d) @ hist.values)
    return LocalTimeEstimate(values=np.maximum(values, 0.0), warnings=warnings)


# ---------------------------------------------------------------------------
# Tanaka decomposition
# ---------------------------------------------------------------------------


@dataclass
class TanakaDecomposition:
    """All terms of the resolvent decomposition at (t, x, lambda), for both
    the G kernel (local time) and its derivative kernel (the H field)."""

    t: float
    x: float
    lam: float
    term_initial: float  # <X_0, G^x>
    term_terminal: float  # <X_t, G^x>
    term_occupation: float  # lambda * int_0^t <X_s, G^x> ds
    term_martingale: float  # event sum of G^x
    local_time: float  # reconstructed L(t, x)
    recentered: float  # Z = L - <X_0, G^x>
    deriv_initial: float  # <X_0, g(x - .)>
    deriv_terminal: float
    deriv_occupation: float
    deriv_martingale: float
    deriv_field: float  # H(t, x) = dZ/dx estimate
    local_time_deriv: float  # dL/dx estimate (valid for atomless X_0)


def _kernel_values(points: np.ndarray, weights, lam: float, x: float):
    a = resolvent_rate(lam)
    even, odd = exp_kernel_sums(_as_1d(points), weights, a, np.array([x]))
    return float(even[0] / a), float(odd[0])


def tanaka_terms(
    recorder: PathRecorder, mu0: FiniteMeasure, lam: float, x: float
) -> TanakaDecomposition:
    """Evaluate every decomposition term at one point (t_end, x, lambda).

    The scalar reference for `tanaka_panel_terms`: the same terms, each
    computed on its own.  The occupation terms come from the registered
    lambda panel's total, so x must be a panel point (UsageError otherwise);
    the terminal terms use the positions at t_end and the martingale terms
    are the kernel sums over the whole event log, so the path must be kept.
    """
    resolvent_rate(lam)  # the rule on lambda, before any total is read
    term_initial = mu0.integrate(lambda y: green_closed(lam, y - x))
    deriv_initial = mu0.integrate(lambda y: g_lambda(lam, x - y))
    mass = recorder.params.mass_per_particle
    term_terminal, deriv_terminal = _kernel_values(recorder.final_positions, mass, lam, x)
    occ, xs = _panel_block(recorder, "tanaka_panel", lam)
    j = panel_index(xs, x)
    term_martingale, deriv_martingale = _kernel_values(
        recorder.event_locations, recorder.event_net_mass, lam, x)
    term_occupation = lam * float(occ[j])
    deriv_occupation = lam * float(occ[xs.size + j])
    recentered = -term_terminal + term_occupation + term_martingale
    deriv_field = -deriv_terminal + deriv_occupation + deriv_martingale
    return TanakaDecomposition(
        t=recorder.horizon,
        x=x,
        lam=lam,
        term_initial=term_initial,
        term_terminal=term_terminal,
        term_occupation=term_occupation,
        term_martingale=term_martingale,
        local_time=term_initial + recentered,
        recentered=recentered,
        deriv_initial=deriv_initial,
        deriv_terminal=deriv_terminal,
        deriv_occupation=deriv_occupation,
        deriv_martingale=deriv_martingale,
        deriv_field=deriv_field,
        local_time_deriv=deriv_initial + deriv_field,
    )


@dataclass
class PanelDecomposition:
    """Vectorized decomposition over the registered panel grid."""

    t: float
    lam: float
    xs: np.ndarray
    term_initial: np.ndarray
    term_terminal: np.ndarray
    term_occupation: np.ndarray
    term_martingale: np.ndarray
    local_time: np.ndarray
    recentered: np.ndarray
    deriv_field: np.ndarray
    local_time_deriv: np.ndarray


def tanaka_panel_terms(
    recorder: PathRecorder, mu0: FiniteMeasure, lam: float
) -> PanelDecomposition:
    """Decomposition at t_end (the recorder's horizon), evaluated at every
    point of the registered panel; the martingale terms are read from the
    registered `tanaka_event_functional` on the same points, and the initial
    terms are `mu0.integrate` of one kernel row per panel point."""
    t = recorder.horizon
    a = resolvent_rate(lam)
    occ, xs = _panel_block(recorder, "tanaka_panel", lam)
    m = xs.size
    mass = recorder.params.mass_per_particle
    even, odd = exp_kernel_sums(_as_1d(recorder.final_positions), mass, a, xs)
    term_terminal, deriv_terminal = even / a, odd
    mart, _ = _panel_block(recorder, "tanaka_event", lam, xs)
    mart_g, mart_d = mart[:m] / a, mart[m:]
    term_initial = mu0.integrate(lambda y: green_closed(lam, y - xs[:, None]))
    deriv_initial = mu0.integrate(lambda y: g_lambda(lam, xs[:, None] - y))
    term_occupation = lam * occ[:m]
    recentered = -term_terminal + term_occupation + mart_g
    deriv_field = -deriv_terminal + lam * occ[m:] + mart_d
    return PanelDecomposition(
        t=t,
        lam=lam,
        xs=xs,
        term_initial=term_initial,
        term_terminal=term_terminal,
        term_occupation=term_occupation,
        term_martingale=mart_g,
        local_time=term_initial + recentered,
        recentered=recentered,
        deriv_field=deriv_field,
        local_time_deriv=deriv_initial + deriv_field,
    )


def ftc_check(panel: PanelDecomposition, x: float) -> float:
    """Residual W(t, x) = Z(t, x) - Z(t, 0) - int_0^x H(t, z) dz on a panel.

    Both x and 0 must be panel points (UsageError otherwise); the integral
    is the trapezoid over the panel points between them.  Exactly 0 at x=0
    or t=0; small for fine estimators (the limit being the statement that H
    is the spatial derivative of Z).
    """
    j0 = panel_index(panel.xs, 0.0)
    jx = panel_index(panel.xs, x)
    if panel.t == 0.0:
        return 0.0
    lo, hi = min(j0, jx), max(j0, jx) + 1
    integral = float(np.trapezoid(panel.deriv_field[lo:hi], panel.xs[lo:hi]))
    if jx < j0:
        integral = -integral
    return float(panel.recentered[jx]) - float(panel.recentered[j0]) - integral


# ---------------------------------------------------------------------------
# Martingale increments and their clock
# ---------------------------------------------------------------------------


def martingale_increments(recorder: PathRecorder, lam: float, pairs) -> np.ndarray:
    """dM = M_t(g^{x1}) - M_t(g^{x2}) at t_end for each pair (x1, x2), with
    g^x(y) = g_lambda(y - x), read from the odd half of a registered
    `tanaka_event_functional` panel that holds lam and every endpoint: that
    half is M_t(g(x - .)) = -M_t(g^x), so dM = odd[x2] - odd[x1]."""
    block, xs = _panel_block(recorder, "tanaka_event", lam)
    odd = block[xs.size :]
    return np.array([odd[panel_index(xs, x2)] - odd[panel_index(xs, x1)] for x1, x2 in pairs])


def increment_clock_weights(nodes, lam: float, pairs, beta: float) -> np.ndarray:
    """|g^{x1} - g^{x2}|^(1+beta) at each node, one column per pair.

    The clock of dM is T = int_0^t <X_s, |g^{x1} - g^{x2}|^(1+beta)> ds; a
    histogram's occupation at t times these weights at its bin centers is T
    by midpoint quadrature, which needs every pair endpoint (where the
    integrand jumps) to be a bin edge."""
    x1s, x2s = np.array(pairs, dtype=float).T
    nodes = np.asarray(nodes, dtype=float)[:, None]
    return np.abs(g_lambda(lam, nodes - x1s) - g_lambda(lam, nodes - x2s)) ** (1 + beta)
