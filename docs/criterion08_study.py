"""Criterion-08 study: martingale-increment scaling against the stable time change.

Re-runs the criterion-08 replicas (beta = 0.5, unit Dirac mass at 0,
N = 2000, t = 0.5, R = 600, lambda = 1, q = 1.2, the 20 pinned pairs) for
each given seed, with two functionals registered that draw no random
numbers, so the paths are those of the acceptance test:

  * the moments kind's histogram_functional(-8, 8, 0.0125), from which each
    pair's clock
        T_d = int_0^t <X_s, |g^{x1} - g^{x2}|^{1+beta}> ds
    is read off as the kind reads it (`increment_clock_weights`; every pair
    endpoint is a bin edge);
  * the moments kind's tanaka_event_functional at the pair endpoints, whose
    odd half gives dM as the kind reads it (`martingale_increments`);
  * on the first 60 replicas, an exact per-particle accumulator of the same
    20 integrands, used only to bound the histogram's quadrature error.

Per seed it prints the slopes (against log d, over the four distances) of
E|dM|^q, E[T_d^{q/(1+beta)}], E T_d, E log|dM| and E log T_d / (1+beta),
and the log slopes of two deliberately broken increments: uncompensated
event sums sum(phi * k / N), and the even kernel G in place of g.  With
--detail it also prints the per-distance table of the first seed and the
part of its log-slope gap that the drifting skewness mix accounts for.

Run from the repository root (about two minutes per seed on one core):

    PYTHONPATH=src python docs/criterion08_study.py --seeds 44 45 46 --detail
"""
from __future__ import annotations

import argparse

import numpy as np
from scipy.stats import levy_stable

from sbmlab.kernels import g_lambda, green_closed
from sbmlab.measures import dirac
from sbmlab.particles import OccupationFunctional, make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.tanaka import (
    histogram_functional,
    increment_clock_weights,
    martingale_increments,
    tanaka_event_functional,
)

BETA, N_SCALE, T, R, LAM, Q = 0.5, 2000, 0.5, 600, 1.0, 1.2
CENTERS = (-0.5, -0.25, 0.0, 0.25, 0.5)
DISTANCES = (0.4, 0.2, 0.1, 0.05)
PAIRS = [(c - d / 2, c + d / 2) for d in DISTANCES for c in CENTERS]
X1, X2 = np.array(PAIRS).T
ENDPOINTS = sorted({x for pair in PAIRS for x in pair})
GATE = 0.15
EXACT_REPLICAS = 60


def _exact_clock_rate(y: np.ndarray, weight: float) -> np.ndarray:
    """weight * sum of |g^{x1} - g^{x2}|^{1+beta} over the points y for every
    pair, one pair at a time so that memory stays linear in the point count."""
    return weight * np.array(
        [increment_clock_weights(y, LAM, [pair], BETA).sum() for pair in PAIRS]
    )


def _slope(values: np.ndarray) -> float:
    return float(np.polyfit(np.log(DISTANCES), values, 1)[0])


def skewness_slope(shares: np.ndarray) -> float:
    """Slope against log d of E log|rho^(1/p) S1 - (1-rho)^(1/p) S2|, with
    S1, S2 independent spectrally positive, mean-zero (1+beta)-stable laws
    and rho the share of the clock where g^{x1} - g^{x2} > 0.  The time
    change writes dM as S1 run by that share minus S2 run by the rest, so
    this is the gap that a skewness mix drifting with d adds to the slope
    of E log|dM| over slope(E log T_d) / (1+beta)."""
    gen = np.random.default_rng(0)
    s1, s2 = (levy_stable.rvs(1.0 + BETA, 1.0, size=400_000, random_state=gen) for _ in range(2))
    p = 1.0 + BETA
    return _slope(
        np.array([np.mean(np.log(np.abs(r ** (1 / p) * s1 - (1 - r) ** (1 / p) * s2))) for r in shares])
    )


def run_seed(seed: int) -> dict:
    params = make_params(BETA, N_SCALE, T, snapshot_stride=10**9)
    hist = histogram_functional(-8.0, 8.0, 0.0125)
    exact = OccupationFunctional(name="clock_exact", sum_fn=_exact_clock_rate, width=len(PAIRS))
    increments = tanaka_event_functional(LAM, ENDPOINTS)
    centers = hist.meta["centers"][:, None]
    bin_integrand = increment_clock_weights(hist.meta["centers"], LAM, PAIRS, BETA)  # (bins, 20)
    bin_positive = bin_integrand * (g_lambda(LAM, centers - X1) > g_lambda(LAM, centers - X2))
    shape = (R, len(PAIRS))
    dm, uncomp, even_g, clock, clock_pos = (np.empty(shape) for _ in range(5))
    clock_err = 0.0
    for i in range(R):
        fns = [hist, increments, exact] if i < EXACT_REPLICAS else [hist, increments]
        rec = simulate(dirac(0.0), params, fns, RngStream(seed, i))
        occ = rec.totals[hist.name].values
        clock[i] = occ @ bin_integrand
        if i < EXACT_REPLICAS:
            clock_exact = rec.totals[exact.name].values
            clock_err = max(clock_err, float(np.max(np.abs(clock[i] / clock_exact - 1))))
        clock_pos[i] = occ @ bin_positive
        y = rec.event_locations
        k = rec.event_offspring / N_SCALE
        net = rec.event_net_mass
        dm[i] = martingale_increments(rec, LAM, PAIRS)
        for j, (x1, x2) in enumerate(PAIRS):
            uncomp[i, j] = (g_lambda(LAM, y - x1) - g_lambda(LAM, y - x2)) @ k
            even_g[i, j] = (green_closed(LAM, y - x1) - green_closed(LAM, y - x2)) @ net

    def per_d(a: np.ndarray) -> np.ndarray:
        # pool the five centers of each distance, as the moments kind does
        return a.reshape(R, len(DISTANCES), len(CENTERS)).mean(axis=(0, 2))

    p = 1.0 + BETA
    clock_pred = _slope(per_d(np.log(clock))) / p
    out = {
        "seed": seed,
        "moments": per_d(np.abs(dm) ** Q),
        "moment_slope": _slope(np.log(per_d(np.abs(dm) ** Q))),
        "clock_moment_slope": _slope(np.log(per_d(clock ** (Q / p)))),
        "clock_slope": _slope(np.log(per_d(clock))),
        "log_slope": _slope(per_d(np.log(np.abs(dm)))),
        "clock_pred": clock_pred,
        "clock_rel_err": clock_err,
        "uncomp_log_slope": _slope(per_d(np.log(np.abs(uncomp)))),
        "even_g_log_slope": _slope(per_d(np.log(np.abs(even_g)))),
        "ratio": per_d(np.abs(dm) ** Q) / per_d(clock ** (Q / p)),
        "pos_share": per_d(clock_pos) / per_d(clock),
    }
    out["gap"] = out["log_slope"] - clock_pred
    out["uncomp_gap"] = out["uncomp_log_slope"] - clock_pred
    out["even_g_gap"] = out["even_g_log_slope"] - clock_pred
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[44])
    ap.add_argument("--detail", action="store_true", help="per-distance table of the first seed")
    args = ap.parse_args()
    print(
        "| seed | E|dM|^q | E T^(q/(1+b)) | E T | E log|dM| | E log T/(1+b) | gap "
        "| uncompensated (gap) | kernel G (gap) | clock rel. err |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    first = None
    for seed in args.seeds:
        r = run_seed(seed)
        first = first or r
        print(
            f"| {seed} | {r['moment_slope']:.3f} | {r['clock_moment_slope']:.3f} "
            f"| {r['clock_slope']:.3f} | {r['log_slope']:.3f} | {r['clock_pred']:.3f} "
            f"| {r['gap']:+.3f} | {r['uncomp_log_slope']:.3f} ({r['uncomp_gap']:+.3f}) "
            f"| {r['even_g_log_slope']:.3f} ({r['even_g_gap']:+.3f}) "
            f"| {r['clock_rel_err']:.1e} |",
            flush=True,
        )
    if args.detail:
        print(f"\nseed {first['seed']}, per distance:")
        print("| d | E|dM|^q | E|dM|^q / E T^(q/(1+b)) | share of T with dg > 0 |")
        print("|---|---|---|---|")
        for j, d in enumerate(DISTANCES):
            print(
                f"| {d} | {first['moments'][j]:.4f} | {first['ratio'][j]:.3f} "
                f"| {first['pos_share'][j]:.3f} |"
            )
        print(
            f"skewness-mix part of the gap: {skewness_slope(first['pos_share']):+.3f} "
            f"of {first['gap']:+.3f}"
        )
    print(f"\ngates: slope(E T) >= {1 - GATE:.2f} and |gap| <= {GATE:.2f}")


if __name__ == "__main__":
    main()
