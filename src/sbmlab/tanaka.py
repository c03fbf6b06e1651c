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

Derivative orientation: d/dx <mu, G_lambda(. - x)> = <mu, g_lambda(x - .)>,
so every derivative-route kernel evaluates g_lambda with arguments reversed
(see kernels module note); the even G is unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .kernels import g_lambda, green_closed, measure_apply
from .measures import FiniteMeasure
from .particles import OccupationFunctional, ParticleState, PathRecorder

__all__ = [
    "exp_kernel_sums",
    "LocalTimeEstimate",
    "TanakaDecomposition",
    "tanaka_panel_functional",
    "kernel_panel_functional",
    "histogram_functional",
    "psi0",
    "psi0_power_functional",
    "interval_indicator_functional",
    "estimate_local_time",
    "tanaka_terms",
    "tanaka_panel_terms",
    "ftc_check",
    "martingale_split",
]


# ---------------------------------------------------------------------------
# Fast exponential-kernel sums.  For sorted centers xs and points y with
# weights w, both
#     sum_i w_i * exp(-a |y_i - x_j|)            (even kernel, for G)
#     sum_i w_i * (-sign(x_j - y_i)) exp(-a |.|) (odd kernel, for dG/dx)
# factor through prefix sums of w * exp(+-a y), costing O(n log n) total
# instead of O(n * len(xs)) exponentials.
# ---------------------------------------------------------------------------


def exp_kernel_sums(y: np.ndarray, weights, a: float, xs: np.ndarray, presorted: bool = False):
    """Returns (even_sums, odd_sums) of the exponential kernel against
    weighted points; odd_sums uses the derivative orientation
    -sign(x - y) exp(-a |x - y|) with points exactly at x contributing 0."""
    n = y.size
    m = xs.size
    if n == 0:
        return np.zeros(m), np.zeros(m)
    w = np.broadcast_to(np.asarray(weights, dtype=float), y.shape)
    if presorted:
        ys, ws = y, w
    else:
        order = np.argsort(y, kind="stable")
        ys = y[order]
        ws = w[order]
    exp_pos = ws * np.exp(a * ys)
    exp_neg = ws * np.exp(-a * ys)
    cum_pos = np.concatenate([[0.0], np.cumsum(exp_pos)])
    cum_neg = np.concatenate([[0.0], np.cumsum(exp_neg)])
    idx_lo = np.searchsorted(ys, xs, side="left")  # count of y < x
    idx_hi = np.searchsorted(ys, xs, side="right")  # count of y <= x
    below = np.exp(-a * xs) * cum_pos[idx_lo]  # sum over y < x of w e^{-a(x-y)}
    above = np.exp(a * xs) * (cum_neg[-1] - cum_neg[idx_hi])  # y > x
    at = np.exp(-a * xs) * (cum_pos[idx_hi] - cum_pos[idx_lo])  # y == x
    even = below + above + at
    odd = -(below) + above  # -sign(x-y): -1 for y<x, +1 for y>x, 0 at x
    return even, odd


def _as_1d(positions: np.ndarray) -> np.ndarray:
    if positions.ndim != 1:
        raise UsageError("Tanaka machinery is defined for d=1 recorders only")
    return positions


# ---------------------------------------------------------------------------
# Registered functionals
# ---------------------------------------------------------------------------


def tanaka_panel_functional(
    lam: float, xs, checkpoint_stride: int = 1
) -> OccupationFunctional:
    """Panel accumulator of <X_s, G_lambda(.-x_j)> and <X_s, g_lambda(x_j-.)>
    for all panel points; values are stacked [G panel, derivative panel]."""
    xs = np.asarray(xs, dtype=float)
    a = math.sqrt(2.0 * lam)
    m = xs.size

    def state_fn(state: ParticleState) -> np.ndarray:
        y = _as_1d(state.sorted_positions())
        even, odd = exp_kernel_sums(y, state.mass_per_particle, a, xs, presorted=True)
        return np.concatenate([even / a, odd])

    return OccupationFunctional(
        name=f"tanaka_panel:{lam:g}",
        state_fn=state_fn,
        width=2 * m,
        checkpoint_stride=checkpoint_stride,
        meta={"kind": "tanaka_panel", "lam": lam, "xs": xs},
    )


def kernel_panel_functional(
    bandwidth: float, xs, checkpoint_stride: int = 1
) -> OccupationFunctional:
    """Panel accumulator of the Gaussian smoothing kernel centered at each
    panel point; its occupation integral is the kernel local-time estimate."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    xs = np.asarray(xs, dtype=float)
    norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))

    def fn(pos: np.ndarray) -> np.ndarray:
        y = _as_1d(pos)
        d = (y[:, None] - xs[None, :]) / bandwidth
        return norm * np.exp(-0.5 * d * d)

    return OccupationFunctional(
        name=f"kernel_panel:{bandwidth:g}",
        fn=fn,
        width=xs.size,
        checkpoint_stride=checkpoint_stride,
        meta={"kind": "kernel_panel", "bandwidth": bandwidth, "xs": xs},
    )


def histogram_functional(
    lo: float, hi: float, bin_width: float, checkpoint_stride: int = 1
) -> OccupationFunctional:
    """Binned occupation accumulator: <X_s, 1_bin> for fixed bins on [lo, hi].

    A cheap per-step route to the kernel local-time estimate: the occupation
    mass per bin is smoothed once at estimate time, with positions quantized
    to bin centers (keep bin_width well below the target bandwidth).
    Particles outside [lo, hi] are not counted.
    """
    edges = np.arange(lo, hi + bin_width * 0.5, bin_width)
    centers = 0.5 * (edges[1:] + edges[:-1])

    def state_fn(state: ParticleState) -> np.ndarray:
        y = _as_1d(state.sorted_positions())
        idx = np.searchsorted(y, edges)
        return state.mass_per_particle * np.diff(idx).astype(float)

    return OccupationFunctional(
        name=f"histogram:{lo:g}:{hi:g}:{bin_width:g}",
        state_fn=state_fn,
        width=centers.size,
        checkpoint_stride=checkpoint_stride,
        meta={"kind": "histogram", "edges": edges, "centers": centers},
    )


def psi0(lam: float, x1: float, x2: float, y):
    """Interval integrand (g_lambda(y-x2) - g_lambda(y-x1)) 1_[x1,x2](y);
    nonnegative and bounded by 2."""
    y = np.asarray(y, dtype=float)
    inside = (y >= x1) & (y <= x2)
    return (g_lambda(lam, y - x2) - g_lambda(lam, y - x1)) * inside


def psi0_power_functional(lam: float, x1: float, x2: float, beta: float) -> OccupationFunctional:
    """Accumulator of <X_s, psi0^(1+beta)>: the stable time change T(t)."""
    if not x1 <= x2:
        raise ValueError(f"need x1 <= x2, got ({x1}, {x2})")
    power = 1.0 + beta

    def fn(pos: np.ndarray) -> np.ndarray:
        return psi0(lam, x1, x2, _as_1d(pos)) ** power

    return OccupationFunctional(
        name=f"psi0pow:{lam:g}:{x1:g}:{x2:g}",
        fn=fn,
        width=1,
        meta={"kind": "psi0_power", "lam": lam, "x1": x1, "x2": x2, "beta": beta},
    )


def interval_indicator_functional(x1: float, x2: float) -> OccupationFunctional:
    """Accumulator of <X_s, 1_[x1,x2]>: the occupation mass of the interval,
    i.e. the exact integral of the local time over [x1, x2]."""
    if not x1 <= x2:
        raise ValueError(f"need x1 <= x2, got ({x1}, {x2})")

    def fn(pos: np.ndarray) -> np.ndarray:
        y = _as_1d(pos)
        return ((y >= x1) & (y <= x2)).astype(float)

    return OccupationFunctional(
        name=f"interval:{x1:g}:{x2:g}",
        fn=fn,
        width=1,
        meta={"kind": "interval", "x1": x1, "x2": x2},
    )


# ---------------------------------------------------------------------------
# Local time estimation
# ---------------------------------------------------------------------------


@dataclass
class LocalTimeEstimate:
    t: float
    x_grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_scale: int
    source: str  # 'registered' or 'snapshots'
    warnings: list[str] = field(default_factory=list)


def estimate_local_time(
    recorder: PathRecorder, t: float, x_grid, bandwidth: float
) -> LocalTimeEstimate:
    """Kernel-smoothed occupation density on x_grid at time t.

    Uses the registered kernel panel when one matches (step-grid accurate);
    otherwise falls back to a trapezoid over recorded snapshots, which
    carries the coarser snapshot-grid time error.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    x_grid = np.asarray(x_grid, dtype=float)
    warnings = []
    spacing = float(np.min(np.diff(x_grid))) if x_grid.size > 1 else math.inf
    if bandwidth < spacing:
        warnings.append(
            f"bandwidth {bandwidth:g} below x-grid resolution {spacing:g}"
        )
    series = recorder.find_series("kernel_panel", bandwidth=bandwidth, xs=x_grid)
    hist = None
    if series is None:
        hist = _matching_histogram(recorder, x_grid, bandwidth)
    if series is not None:
        values = series.at(t)
        source = "registered"
    elif hist is not None:
        centers = hist.meta["centers"]
        occ = hist.at(t)
        norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))
        d = (x_grid[:, None] - centers[None, :]) / bandwidth
        values = norm * (np.exp(-0.5 * d * d) @ occ)
        source = "registered"
    else:
        values = _kernel_occupation_from_snapshots(recorder, t, x_grid, bandwidth)
        source = "snapshots"
        warnings.append("estimated from snapshot grid; coarser time quadrature")
    return LocalTimeEstimate(
        t=t,
        x_grid=x_grid,
        values=np.maximum(values, 0.0),
        bandwidth=bandwidth,
        n_scale=recorder.params.n_scale,
        source=source,
        warnings=warnings,
    )


def _matching_histogram(recorder: PathRecorder, x_grid: np.ndarray, bw: float):
    """A registered histogram usable for bandwidth bw: bins at most bw/4 and
    covering the x_grid with a 5-bandwidth margin."""
    for series in recorder.occupations.values():
        m = series.meta
        if m.get("kind") != "histogram":
            continue
        edges = m["edges"]
        if (
            np.max(np.diff(edges)) <= bw / 4 + 1e-12
            and edges[0] <= x_grid.min() - 5 * bw
            and edges[-1] >= x_grid.max() + 5 * bw
        ):
            return series
    return None


def _kernel_occupation_from_snapshots(
    recorder: PathRecorder, t: float, xs: np.ndarray, bw: float
) -> np.ndarray:
    times = recorder.snapshot_times
    mask = times <= t + 1e-12
    if not mask.any():
        return np.zeros(xs.size)
    norm = 1.0 / (bw * math.sqrt(2.0 * math.pi))
    mass = recorder.params.mass_per_particle
    vals = []
    for keep, pos in zip(mask, recorder.snapshots):
        if not keep:
            continue
        if pos.shape[0] == 0:
            vals.append(np.zeros(xs.size))
            continue
        d = (_as_1d(pos)[:, None] - xs[None, :]) / bw
        vals.append(mass * norm * np.exp(-0.5 * d * d).sum(axis=0))
    return np.trapezoid(np.vstack(vals), times[mask], axis=0)


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
    occupation_exact: bool  # False when the occupation term used snapshots


def _state_kernel_values(positions: np.ndarray, mass: float, lam: float, x: float):
    a = math.sqrt(2.0 * lam)
    even, odd = exp_kernel_sums(_as_1d(positions), mass, a, np.array([x]))
    return float(even[0] / a), float(odd[0])


def _event_kernel_sums(recorder: PathRecorder, lam: float, t: float, xs: np.ndarray):
    sl = recorder.events_until(t)
    a = math.sqrt(2.0 * lam)
    locs = _as_1d(recorder.event_locations[sl])
    net = recorder.event_net_mass[sl]
    even, odd = exp_kernel_sums(locs, net, a, xs)
    return even / a, odd


def _occupation_pair(recorder: PathRecorder, lam: float, t: float, x: float):
    """(int <X_s,G^x> ds, int <X_s,g(x-.)> ds, exact_flag) at time t."""
    series = recorder.find_series("tanaka_panel", lam=lam)
    if series is not None:
        xs = series.meta["xs"]
        j = int(np.argmin(np.abs(xs - x)))
        if abs(xs[j] - x) < 1e-12:
            vals = series.at(t)
            m = xs.size
            return float(vals[j]), float(vals[m + j]), True
    # snapshot fallback: coarser time quadrature
    times = recorder.snapshot_times
    mask = times <= t + 1e-12
    mass = recorder.params.mass_per_particle
    g_vals, d_vals = [], []
    for keep, pos in zip(mask, recorder.snapshots):
        if not keep:
            continue
        gv, dv = _state_kernel_values(pos, mass, lam, x)
        g_vals.append(gv)
        d_vals.append(dv)
    return (
        float(np.trapezoid(g_vals, times[mask])),
        float(np.trapezoid(d_vals, times[mask])),
        False,
    )


def tanaka_terms(
    recorder: PathRecorder, mu0: FiniteMeasure, lam: float, t: float, x: float
) -> TanakaDecomposition:
    """Evaluate every decomposition term at (t, x, lambda).

    The occupation terms use the registered panel accumulator when x is a
    panel point (exact on the step grid) and otherwise fall back to the
    snapshot trapezoid.  Martingale terms are exact event sums either way.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    term_initial = measure_apply(mu0, lambda y: green_closed(lam, y - x))
    deriv_initial = measure_apply(mu0, lambda y: g_lambda(lam, x - y))
    mass = recorder.params.mass_per_particle
    positions = recorder.state_at(t)
    term_terminal, deriv_terminal = _state_kernel_values(positions, mass, lam, x)
    occ_g, occ_d, exact = _occupation_pair(recorder, lam, t, x)
    mart_g, mart_d = _event_kernel_sums(recorder, lam, t, np.array([x]))
    term_occupation = lam * occ_g
    deriv_occupation = lam * occ_d
    term_martingale = float(mart_g[0])
    deriv_martingale = float(mart_d[0])
    recentered = -term_terminal + term_occupation + term_martingale
    deriv_field = -deriv_terminal + deriv_occupation + deriv_martingale
    return TanakaDecomposition(
        t=t,
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
        occupation_exact=exact,
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
    recorder: PathRecorder, mu0: FiniteMeasure, lam: float, t: float
) -> PanelDecomposition:
    """Decomposition evaluated at every point of the registered panel."""
    series = recorder.find_series("tanaka_panel", lam=lam)
    if series is None:
        raise UsageError(
            f"no tanaka panel registered for lambda={lam}; register "
            "tanaka_panel_functional before simulate"
        )
    xs = np.asarray(series.meta["xs"])
    m = xs.size
    occ = series.at(t)
    mass = recorder.params.mass_per_particle
    a = math.sqrt(2.0 * lam)
    even, odd = exp_kernel_sums(_as_1d(recorder.state_at(t)), mass, a, xs)
    term_terminal, deriv_terminal = even / a, odd
    mart_g, mart_d = _event_kernel_sums(recorder, lam, t, xs)
    term_initial = np.array(
        [measure_apply(mu0, lambda y: green_closed(lam, y - x)) for x in xs]
    )
    deriv_initial = np.array(
        [measure_apply(mu0, lambda y: g_lambda(lam, x - y)) for x in xs]
    )
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


def ftc_check(
    recorder: PathRecorder, mu0: FiniteMeasure, lam: float, t: float, x: float
) -> float:
    """Residual W(t, x) = Z(t, x) - Z(t, 0) - int_0^x H(t, z) dz.

    Exactly 0 at x=0 or t=0; small for fine estimators (the limit being the
    statement that H is the spatial derivative of Z).  The integral uses the
    registered panel grid between 0 and x.
    """
    if t == 0.0:
        return 0.0
    if x == 0.0:
        return 0.0
    panel = tanaka_panel_terms(recorder, mu0, lam, t)
    xs = panel.xs
    lo, hi = (0.0, x) if x > 0 else (x, 0.0)
    if not (xs.min() <= lo and xs.max() >= hi):
        raise UsageError(f"panel [{xs.min()}, {xs.max()}] does not cover [0, {x}]")

    def z_at(pt: float) -> float:
        j = int(np.argmin(np.abs(xs - pt)))
        if abs(xs[j] - pt) < 1e-12:
            return float(panel.recentered[j])
        return float(tanaka_terms(recorder, mu0, lam, t, pt).recentered)

    inside = (xs >= lo - 1e-12) & (xs <= hi + 1e-12)
    zg = xs[inside]
    hv = panel.deriv_field[inside]
    integral = float(np.trapezoid(hv, zg))
    if x < 0:
        integral = -integral
    return z_at(x) - z_at(0.0) - integral


# ---------------------------------------------------------------------------
# Martingale increment structure
# ---------------------------------------------------------------------------


def martingale_split(
    recorder: PathRecorder, lam: float, x1: float, x2: float, t: float
) -> tuple[float, float]:
    """Outside/inside split (I, Z) of the martingale increment
    M(g^{x1}) - M(g^{x2}); the identity I - Z = delta-M holds exactly."""
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got ({x1}, {x2})")
    sl = recorder.events_until(t)
    y = _as_1d(recorder.event_locations[sl])
    net = recorder.event_net_mass[sl]
    diff = g_lambda(lam, y - x1) - g_lambda(lam, y - x2)
    outside = (y < x1) | (y > x2)
    i_part = float(np.sum(diff * outside * net))
    z_part = float(np.sum(-diff * (~outside) * net))
    return i_part, z_part
