"""Local time estimation, the Tanaka decomposition, the derivative field,
and martingale increment structure (its moments run through the harness)."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import per_particle_functional
from sbmlab.config import ExperimentConfig, parse_config_text
from sbmlab.errors import ConfigError, NumericsError, UsageError, raise_violations
from sbmlab.harness import run_experiment
from sbmlab.kernels import g_lambda, green_closed, green_numeric, heat_kernel, resolvent_rate
from sbmlab.measures import FiniteMeasure, dirac, gridded_density
from sbmlab.particles import (
    ModelParams,
    OccupationFunctional,
    make_params,
    simulate,
)
from sbmlab.rng import RngStream
from sbmlab.stable_path import compute_T, interval_martingale
from sbmlab.tanaka import (
    estimate_local_time,
    endpoints_off_edges,
    exp_kernel_sums,
    ftc_check,
    histogram_edges,
    histogram_functional,
    increment_clock_weights,
    interval_indicator_functional,
    interval_violations,
    martingale_increments,
    psi0,
    psi0_event_functional,
    psi0_power_functional,
    tanaka_event_functional,
    tanaka_panel_functional,
    tanaka_panel_terms,
    tanaka_terms,
)


def _kernel_panel(bandwidth: float, xs: np.ndarray) -> OccupationFunctional:
    """The exact kernel route: an accumulator of the Gaussian smoothing
    kernel centered at each point of xs, whose occupation integral is the
    kernel local-time estimate that the histogram route approximates."""
    norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))

    def fn(pos: np.ndarray) -> np.ndarray:
        d = (pos[:, None] - xs[None, :]) / bandwidth
        return norm * np.exp(-0.5 * d * d)

    return per_particle_functional("kernel_panel", fn, xs.size)


def _brute_force_sums(y, weights, a, xs):
    """The kernel sums point by point, and their scale: (even, odd, the
    largest sum of |w| e^{-a|x-y|} over the centers), per rate on the first
    axis when a is an array."""
    w = np.broadcast_to(np.asarray(weights, dtype=float), np.shape(y))
    d = xs[:, None] - np.asarray(y)[None, :]
    out = []
    for rate in np.atleast_1d(a):
        kernel = np.exp(-rate * np.abs(d))
        out.append(((kernel * w).sum(axis=1), (-np.sign(d) * kernel * w).sum(axis=1),
                    (kernel * np.abs(w)).sum(axis=1).max()))
    even, odd, scale = (np.array(v) for v in zip(*out))
    if np.ndim(a) == 0:
        return even[0], odd[0], scale[0]
    return even, odd, scale[:, None]


def _assert_brute_force(got, y, weights, a, xs, rel=1e-12):
    """Both sums within rel of the largest even sum of |w| (per rate)."""
    even, odd, scale = _brute_force_sums(y, weights, a, xs)
    assert got[0].shape == even.shape and got[1].shape == odd.shape
    assert (np.abs(got[0] - even) <= rel * scale).all()
    assert (np.abs(got[1] - odd) <= rel * scale).all()


class TestExpKernelSums:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 400)
        w = rng.normal(0, 1, 400)
        xs = np.linspace(-1.5, 1.5, 13)
        a = 1.7
        even, odd = exp_kernel_sums(y, w, a, xs)
        bf_even = np.array([np.sum(w * np.exp(-a * np.abs(y - x))) for x in xs])
        bf_odd = np.array(
            [np.sum(w * -np.sign(x - y) * np.exp(-a * np.abs(x - y))) for x in xs]
        )
        assert np.abs(even - bf_even).max() < 1e-10
        assert np.abs(odd - bf_odd).max() < 1e-10

    def test_point_at_center(self):
        even, odd = exp_kernel_sums(np.array([0.5]), 2.0, 1.0, np.array([0.5]))
        assert even[0] == pytest.approx(2.0)
        assert odd[0] == 0.0

    def test_empty(self):
        even, odd = exp_kernel_sums(np.empty(0), 1.0, 1.0, np.array([0.0]))
        assert even[0] == 0.0 and odd[0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 400])
    def test_rate_rows_match_scalar_calls(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(0, 1, n)
        w = rng.normal(0, 1e-3, n)
        xs = np.linspace(-1.5, 1.5, 13)
        rates = np.sqrt(2.0 * np.array([0.5, 2.0, 10.0]))
        for presorted in (False, True):
            ys = np.sort(y) if presorted else y
            even, odd = exp_kernel_sums(ys, w, rates, xs, presorted=presorted)
            assert even.shape == odd.shape == (3, xs.size)
            for r, a in enumerate(rates):
                even_r, odd_r = exp_kernel_sums(ys, w, float(a), xs, presorted=presorted)
                assert np.array_equal(even[r], even_r)
                assert np.array_equal(odd[r], odd_r)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_bit_for_bit(self, seed):
        # points on the panel points (exact hits, ties) and between them; the
        # reference is brute force, to 1e-12 of the largest even sum, and
        # bit for bit the call on unsorted points with a weight per point
        rng = np.random.default_rng(seed)
        xs = np.linspace(-1.5, 1.5, 31)
        n = int(rng.integers(1, 600))
        y = np.where(rng.random(n) < 0.3, rng.choice(xs, n), rng.normal(0, 1, n))
        weights = rng.normal(0, 1e-2, n) if seed % 2 else 1e-3
        a = np.sqrt(2.0 * np.array([0.5, 2.0])) if seed % 4 < 2 else 1.7
        want = exp_kernel_sums(y, np.broadcast_to(weights, y.shape), a, xs)
        _assert_brute_force(want, y, weights, a, xs)
        order = np.argsort(y, kind="stable")
        w_sorted = weights[order] if np.ndim(weights) else weights
        for got in (exp_kernel_sums(y, weights, a, xs),
                    exp_kernel_sums(y[order], w_sorted, a, xs, presorted=True)):
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("spread", [0.5, 3.0, 10.0, 400.0])
    def test_exact_at_every_rate_and_spread(self, lam, spread):
        # a panel centred away from 0, points around it at every spread, a
        # tenth of them on panel points; rates lam and 2 lam at once
        rng = np.random.default_rng(int(lam * 10 + spread))
        xs = np.linspace(2.0, 4.0, 41)
        y = 3.0 + spread * rng.normal(0, 1, 2000)
        hits = rng.random(y.size) < 0.1
        y[hits] = rng.choice(xs, np.count_nonzero(hits))
        a = np.sqrt(2.0 * np.array([lam, 2.0 * lam]))
        order = np.argsort(y, kind="stable")
        for weights in (1e-3, rng.normal(0, 1e-3, y.size)):
            w_sorted = weights[order] if np.ndim(weights) else weights
            for got in (exp_kernel_sums(y, weights, a, xs),
                        exp_kernel_sums(y[order], w_sorted, a, xs, presorted=True),
                        exp_kernel_sums(y, weights, float(a[0]), xs)):
                _assert_brute_force(got, y, weights, a if np.ndim(got[0]) == 2 else a[0], xs)

    def test_centers_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            exp_kernel_sums(np.zeros(3), 1.0, 1.0, np.array([1.0, 0.0]))

    def test_panel_values_match_reference(self, panel_grid):
        lams = (0.5, 2.0)
        a = np.sqrt(2.0 * np.array(lams))
        panel = tanaka_panel_functional(lams, panel_grid)
        rng = np.random.default_rng(19)
        for positions in (np.zeros(50), rng.choice(panel_grid, 80), rng.normal(0, 0.5, 300)):
            even, odd, scale = _brute_force_sums(positions, 0.02, a, panel_grid)
            got = panel.state_value(np.sort(positions), 0.02).reshape(2, 2, -1)
            assert (np.abs(got[:, 0] - even / a[:, None]) <= 1e-12 * scale / a[:, None]).all()
            assert (np.abs(got[:, 1] - odd) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("y", [[-39.0, 0.0, 39.0], [-39.0, 0.0]])
    @pytest.mark.parametrize("a", [20.0, np.array([1.0, 20.0])])
    def test_overflow_is_loud(self, a, y):
        # the sums take every exponent from the panel midpoint: at rate 20 on
        # centers of half-width 40, e^(a (y - c)) passes exp's range at points
        # inside the panel, and the sums that read it are not finite
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericsError, match=r"rate a = 20 on centers of half-width 40"
        ):
            exp_kernel_sums(np.array(y), 1e-3, a, np.linspace(-40.0, 40.0, 5))

    @pytest.mark.parametrize("a", [20.0, np.array([1.0, 20.0])])
    def test_overflow_right_of_the_panel_is_unused(self, a):
        # w e^{a (y - c)} overflows only at y = 400, to the right of every
        # panel point, and no sum reads it
        y, w, xs = np.array([0.0, 400.0]), 1e-3, np.linspace(-1.0, 1.0, 5)
        even, odd = exp_kernel_sums(y, w, a, xs)
        for r, rate in enumerate(np.atleast_1d(a)):
            kernel = w * np.exp(-rate * np.abs(xs[:, None] - y))
            np.testing.assert_allclose(np.atleast_2d(even)[r], kernel.sum(axis=1),
                                       rtol=1e-14, atol=1e-18)
            np.testing.assert_allclose(np.atleast_2d(odd)[r],
                                       (-np.sign(xs[:, None] - y) * kernel).sum(axis=1),
                                       rtol=1e-14, atol=1e-18)


class TestSharedWork:
    """The shortcuts of the functionals and the post-processing give what the
    direct evaluations give: bit for bit, or to rounding where they sum in
    another order."""

    def test_two_rate_panel_matches_one_rate_panels(self, panel_grid):
        p = make_params(0.5, 300, 0.2)
        mu = dirac(0.0)
        both = simulate(mu, p, [tanaka_panel_functional((0.5, 2.0), panel_grid),
                                tanaka_event_functional((0.5, 2.0), panel_grid)],
                        RngStream(41, 0))
        apart = simulate(
            mu, p,
            [f(lam, panel_grid) for f in (tanaka_panel_functional, tanaka_event_functional)
             for lam in (0.5, 2.0)],
            RngStream(41, 0),
        )
        pooled, blocks = both.totals, apart.totals
        for name in ("tanaka_panel", "tanaka_event"):
            assert np.array_equal(
                pooled[f"{name}:0.5,2"].values,
                np.hstack([blocks[f"{name}:{lam:g}"].values for lam in (0.5, 2.0)]),
            )
        for lam in (0.5, 2.0):
            a, b = tanaka_panel_terms(both, mu, lam), tanaka_panel_terms(apart, mu, lam)
            for name in ("term_occupation", "term_terminal", "term_martingale", "local_time",
                         "deriv_field", "local_time_deriv"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (lam, name)

    def test_panel_rates_validated(self, panel_grid):
        # a rate outside the lambda rule: TestLambdaRule
        assert tanaka_panel_functional(1.0, panel_grid).name == "tanaka_panel:1"
        with pytest.raises(ValueError, match="duplicate"):
            tanaka_panel_functional((1.0, 2.0, 1.0), panel_grid)

    def test_presorted_sums_match_unsorted(self, small_recorders, panel_grid):
        _, params, recs = small_recorders
        a = 1.3
        for rec in recs[:5]:
            order = np.argsort(rec.event_locations, kind="stable")
            want = exp_kernel_sums(rec.event_locations, rec.event_net_mass, a, panel_grid)
            got = exp_kernel_sums(rec.event_locations[order], rec.event_net_mass[order], a,
                                  panel_grid, presorted=True)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            positions = rec.final_positions
            want = exp_kernel_sums(positions, params.mass_per_particle, a, panel_grid)
            got = exp_kernel_sums(
                np.sort(positions), params.mass_per_particle, a, panel_grid, presorted=True
            )
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "mu",
        [
            dirac(0.0),
            FiniteMeasure(np.array([-0.3, 0.0, 0.45]), np.array([0.2, 0.5, 0.3]),
                          np.array([]), np.array([])),
            gridded_density(np.linspace(-2, 2, 81), np.exp(-np.linspace(-2, 2, 81) ** 2)),
        ],
        ids=["dirac", "three_atoms", "density"],
    )
    def test_initial_terms_match_integrate_loop(self, mu):
        # tanaka_panel_terms integrates one kernel row per panel point
        xs = np.linspace(-1.0, 1.0, 513)
        for lam in (0.5, 2.0):
            green = mu.integrate(lambda y: green_closed(lam, y - xs[:, None]))
            deriv = mu.integrate(lambda y: g_lambda(lam, xs[:, None] - y))
            assert np.array_equal(
                green, np.array([mu.integrate(lambda y: green_closed(lam, y - x)) for x in xs])
            )
            assert np.array_equal(
                deriv, np.array([mu.integrate(lambda y: g_lambda(lam, x - y)) for x in xs])
            )

    @pytest.mark.parametrize("x1, x2", [(-0.1, 0.1), (0.0, 0.3), (-0.3, 0.0), (0.2, 0.2)])
    def test_interval_functionals_match_full_array(self, x1, x2):
        # the functionals read the slice of the sorted points inside [x1, x2]
        rng = np.random.default_rng(7)
        mass = 1.0 / 2000
        for n in (0, 1, 5, 3000):
            y = rng.normal(0, 0.5, n)
            y[: min(n, 5)] = [x1, x2, 0.0, x1 - 1.0, x2 + 1.0][: min(n, 5)]
            inside = (y >= x1) & (y <= x2)
            for lam, beta in ((1.0, 0.5), (0.5, 0.3)):
                full = (g_lambda(lam, y - x2) - g_lambda(lam, y - x1)) * inside
                assert np.array_equal(psi0(lam, x1, x2, y), full)
                want = mass * (full ** (1.0 + beta)).sum(keepdims=True)
                got = psi0_power_functional(lam, x1, x2, beta).state_value(np.sort(y), mass)
                assert got.shape == (1,) and abs(got[0] - want[0]) <= 1e-12 * want[0]
            want = mass * inside.astype(float)[:, None].sum(axis=0) if n else np.zeros(1)
            got = interval_indicator_functional(x1, x2).state_value(np.sort(y), mass)
            assert np.array_equal(got, want)

    def test_interval_functionals_need_d1(self):
        for f in (psi0_power_functional(1.0, 0.0, 1.0, 0.5), interval_indicator_functional(0.0, 1.0)):
            with pytest.raises(UsageError):
                f.state_value(np.zeros((3, 2)), 1.0)


class TestLocalTimeEstimate:
    def test_zero_at_time_zero(self, panel_grid):
        fns = [histogram_functional(-8.0, 8.0, 0.025)]
        rec = simulate(dirac(0.0), make_params(0.5, 500, 0.0), fns, RngStream(901, 0))
        est = estimate_local_time(rec, panel_grid, 0.1)
        assert (est == 0.0).all()

    def test_quadrature_matches_total_occupation(self, small_recorders):
        _, _, recs = small_recorders
        wide = np.linspace(-6, 6, 241)
        for rec in recs[:10]:
            est = estimate_local_time(rec, wide, 0.1)
            total = rec.mass_occupation[-1]
            assert np.trapezoid(est, wide) == pytest.approx(total, rel=0.01)

    def test_nondecreasing_in_time(self, panel_grid):
        # one stream at one step: the run to t = 0.15 is the first 51 steps
        # of the run to t = 0.3
        fns = [histogram_functional(-8.0, 8.0, 0.025)]
        e1, e2 = (
            estimate_local_time(
                simulate(dirac(0.0), ModelParams(0.5, 500, 0.3 / 102, t), fns,
                         RngStream(901, 0), keep_path=False),
                panel_grid, 0.1)
            for t in (0.15, 0.3)
        )
        assert (e2 >= e1 - 1e-12).all()

    def test_replica_mean_vs_heat_oracle(self):
        # E L_hat(t, 0) = int_0^t (P_s k_bw)(0) ds
        #              = sqrt(2/pi) (sqrt(t + bw^2) - bw) for X_0 = delta_0
        t, bw = 0.3, 0.1
        closed = math.sqrt(2.0 / math.pi) * (math.sqrt(t + bw * bw) - bw)
        numeric = quad(
            lambda s: 1.0 / math.sqrt(2 * math.pi * (s + bw * bw)), 0, t, epsabs=1e-12
        )[0]
        assert closed == pytest.approx(numeric, abs=1e-10)
        p = make_params(0.5, 500, t, snapshot_stride=10**9)
        mu = dirac(0.0)
        fns = [_kernel_panel(bw, np.array([0.0]))]
        vals = []
        for i in range(150):
            rec = simulate(mu, p, fns, RngStream(21, i))
            vals.append(rec.totals["kernel_panel"].values[0])
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - closed) <= 3 * se

    def test_histogram_route_matches_kernel_panel(self):
        # two recorders of one path (functionals draw no random numbers):
        # the kernel panel is exact, the other recorder has only the histogram
        t, bw = 0.2, 0.12
        xs = np.linspace(-1, 1, 21)
        p = make_params(0.5, 400, t, snapshot_stride=10**9)
        panel = simulate(dirac(0.0), p, [_kernel_panel(bw, xs)], RngStream(22, 0))
        binned = simulate(dirac(0.0), p, [histogram_functional(-8, 8, bw / 8)], RngStream(22, 0))
        exact = panel.totals["kernel_panel"].values
        est = estimate_local_time(binned, xs, bw)
        assert np.abs(est - exact).max() < 0.01 * max(1.0, exact.max())

    def test_no_accumulator_usage_error(self, small_recorders):
        p = make_params(0.5, 200, 0.1, snapshot_stride=5)
        rec = simulate(dirac(0.0), p, [], RngStream(23, 0))
        with pytest.raises(UsageError):
            estimate_local_time(rec, np.linspace(-1, 1, 11), 0.2)
        # a histogram too coarse for the bandwidth or too narrow for the grid
        _, _, recs = small_recorders
        for xs, bw in ((np.linspace(-1, 1, 11), 0.05), (np.linspace(-7, 7, 11), 0.3)):
            with pytest.raises(UsageError):
                estimate_local_time(recs[0], xs, bw)

    def test_bandwidth_validation(self, small_recorders, panel_grid):
        # NaN and inf passed `bandwidth <= 0` and then matched no histogram
        _, _, recs = small_recorders
        for bandwidth in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
                estimate_local_time(recs[0], panel_grid, bandwidth)


class TestTanakaDecomposition:
    def test_time_zero_trivial(self, panel_grid):
        # at t=0 the reconstruction collapses: L = 0 and the recentered /
        # derivative fields reduce to minus the initial-measure terms
        mu = dirac(0.0)
        fns = [tanaka_panel_functional(0.5, panel_grid)]
        rec = simulate(mu, make_params(0.5, 500, 0.0), fns, RngStream(901, 0))
        d = tanaka_terms(rec, mu, 0.5, 0.25)
        assert d.local_time == pytest.approx(0.0, abs=1e-14)
        assert d.term_occupation == 0.0 and d.term_martingale == 0.0
        assert d.recentered == pytest.approx(-d.term_initial, abs=1e-14)
        assert d.deriv_field == pytest.approx(-d.deriv_initial, abs=1e-14)

    def test_algebraic_identity_exact(self, small_recorders):
        mu, _, recs = small_recorders
        for rec in recs[:10]:
            d = tanaka_terms(rec, mu, 0.5, 0.25)
            assert d.recentered == -d.term_terminal + d.term_occupation + d.term_martingale
            assert d.local_time == d.term_initial + d.recentered

    def test_lambda_robustness(self, small_recorders):
        # Eq-level lambda-independence of the reconstruction, paired test
        mu, _, recs = small_recorders
        diffs = []
        for rec in recs:
            a = tanaka_terms(rec, mu, 0.5, 0.25).local_time
            b = tanaka_terms(rec, mu, 2.0, 0.25).local_time
            diffs.append(a - b)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert abs(diffs.mean()) <= 3 * se

    def test_offpanel_point_usage_error(self, small_recorders):
        mu, _, recs = small_recorders
        with pytest.raises(UsageError):
            tanaka_terms(recs[0], mu, 0.5, 0.1234)  # not a panel point
        with pytest.raises(UsageError):
            tanaka_terms(recs[0], mu, 1.0, 0.25)  # no panel at this lambda

    def test_panel_terms_match_scalar_route(self, small_recorders, panel_grid):
        mu, _, recs = small_recorders
        rec = recs[0]
        panel = tanaka_panel_terms(rec, mu, 0.5)
        j = int(np.argmin(np.abs(panel_grid - 0.25)))
        d = tanaka_terms(rec, mu, 0.5, float(panel_grid[j]))
        assert panel.local_time[j] == pytest.approx(d.local_time, rel=1e-12)
        assert panel.deriv_field[j] == pytest.approx(d.deriv_field, rel=1e-12)

    def test_scalar_route_reads_the_last_step(self):
        # 22 steps of 0.1/22 end 1.4e-17 past t_end = 0.1: the scalar route
        # sums the last step's 12 events too, as the panel's totals do
        mu, xs = dirac(0.0), np.linspace(-1.0, 1.0, 11)
        p = make_params(0.5, 200, 0.1)
        fns = [tanaka_panel_functional(0.5, xs), tanaka_event_functional(0.5, xs)]
        rec = simulate(mu, p, fns, RngStream(3, 0))
        assert p.n_steps * p.dt > 0.1
        assert rec.event_times.size == 372 and rec.step_event_counts[-1] == 12
        panel = tanaka_panel_terms(rec, mu, 0.5)
        for j in (3, 5, 7):
            d = tanaka_terms(rec, mu, 0.5, float(xs[j]))
            for name in ("term_martingale", "local_time", "deriv_field"):
                assert getattr(panel, name)[j] == pytest.approx(getattr(d, name), rel=1e-12)

    def test_missing_panel_usage_error(self):
        p = make_params(0.5, 100, 0.05)
        rec = simulate(dirac(0.0), p, [], RngStream(24, 0))
        with pytest.raises(UsageError):
            tanaka_panel_terms(rec, dirac(0.0), 1.0)
        rec = simulate(dirac(0.0), p, [tanaka_panel_functional(1.0, np.array([0.0]))],
                       RngStream(24, 0))
        with pytest.raises(UsageError, match="tanaka_event"):
            tanaka_panel_terms(rec, dirac(0.0), 1.0)


# every reader of lambda, called at a given lambda; the recorder readers get
# the small_recorders path, whose panels hold lambda 0.5 and 2
_LAMBDA_READERS = {
    "resolvent_rate": lambda lam, rec, mu: resolvent_rate(lam),
    "green_numeric": lambda lam, rec, mu: green_numeric(lam, 0.3),
    "green_closed": lambda lam, rec, mu: green_closed(lam, 0.3),
    "g_lambda": lambda lam, rec, mu: g_lambda(lam, 0.3),
    "psi0": lambda lam, rec, mu: psi0(lam, -0.1, 0.1, np.array([0.0])),
    "psi0_power_functional": lambda lam, rec, mu: psi0_power_functional(lam, -0.1, 0.1, 0.5),
    "psi0_event_functional": lambda lam, rec, mu: psi0_event_functional(lam, -0.1, 0.1),
    "increment_clock_weights": lambda lam, rec, mu: increment_clock_weights(
        np.array([0.0]), lam, [(-0.1, 0.1)], 0.5),
    "tanaka_panel_functional": lambda lam, rec, mu: tanaka_panel_functional(
        (0.5, lam), np.array([0.0])),
    "tanaka_event_functional": lambda lam, rec, mu: tanaka_event_functional(
        lam, np.array([0.0])),
    "tanaka_terms": lambda lam, rec, mu: tanaka_terms(rec, mu, lam, 0.25),
    "tanaka_panel_terms": lambda lam, rec, mu: tanaka_panel_terms(rec, mu, lam),
}


class TestLambdaRule:
    @pytest.mark.parametrize("reader", _LAMBDA_READERS)
    def test_every_reader_states_the_rule(self, reader, small_recorders):
        # NaN and inf passed every copy of `lam <= 0`: a reader returned NaN
        # or zeros, or raised UsageError from a panel lookup that never matches
        mu, _, recs = small_recorders
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be finite and > 0"):
                _LAMBDA_READERS[reader](lam, recs[0], mu)
        _LAMBDA_READERS[reader](2.0, recs[0], mu)  # a valid lambda is read


# every reader of an interval [x1, x2], called at given ends; the recorder
# readers get the small_recorders path, which holds lambda 0.5 on [-0.1, 0.1]
_INTERVAL_READERS = {
    "interval_violations": lambda x1, x2, rec: raise_violations(interval_violations(x1, x2)),
    "psi0": lambda x1, x2, rec: psi0(1.0, x1, x2, np.array([0.15])),
    "psi0_power_functional": lambda x1, x2, rec: psi0_power_functional(0.5, x1, x2, 0.5),
    "psi0_event_functional": lambda x1, x2, rec: psi0_event_functional(0.5, x1, x2),
    "interval_indicator_functional": lambda x1, x2, rec: interval_indicator_functional(x1, x2),
    "compute_T": lambda x1, x2, rec: compute_T(rec, 0.5, x1, x2),
    "interval_martingale": lambda x1, x2, rec: interval_martingale(rec, 0.5, x1, x2),
    "validate[timechange]": lambda x1, x2, rec: raise_violations(
        ExperimentConfig(kind="timechange", x1=x1, x2=x2).validate()),
}


class TestIntervalRule:
    @pytest.mark.parametrize("reader", _INTERVAL_READERS)
    def test_every_reader_states_the_rule(self, reader, small_recorders):
        # psi0 returned zeros for x1 > x2, and interval_martingale raised
        # UsageError from a lookup that never matches
        _, _, recs = small_recorders
        for x1, x2 in ((0.2, 0.1), (math.nan, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError, match=r"need x1 <= x2, got"):
                _INTERVAL_READERS[reader](x1, x2, recs[0])
        _INTERVAL_READERS[reader](-0.1, 0.1, recs[0])  # a valid interval is read


class TestFtcCheck:
    def test_zero_at_origin_and_time_zero(self, small_recorders, panel_grid):
        mu, _, recs = small_recorders
        assert ftc_check(tanaka_panel_terms(recs[0], mu, 0.5), 0.0) == 0.0
        # a path simulated to t = 0
        fns = [tanaka_panel_functional(0.5, panel_grid), tanaka_event_functional(0.5, panel_grid)]
        rec = simulate(mu, make_params(0.5, 500, 0.0), fns, RngStream(901, 0))
        assert ftc_check(tanaka_panel_terms(rec, mu, 0.5), 0.5) == 0.0

    def test_small_residual(self, small_recorders):
        mu, _, recs = small_recorders
        vals = [abs(ftc_check(tanaka_panel_terms(rec, mu, 0.5), 0.5)) for rec in recs[:40]]
        assert np.mean(vals) < 0.05

    def test_negative_x(self, small_recorders):
        mu, _, recs = small_recorders
        panel = tanaka_panel_terms(recs[0], mu, 0.5)
        w = ftc_check(panel, -0.5)
        assert np.isfinite(w)
        # the residual of the reversed range: -W(-0.5) = Z(0) - Z(-0.5) - int_{-0.5}^0 H
        j0, jx = 20, 10
        assert panel.xs[jx] == pytest.approx(-0.5) and panel.xs[j0] == pytest.approx(0.0)
        integral = np.trapezoid(panel.deriv_field[jx : j0 + 1], panel.xs[jx : j0 + 1])
        reverse = panel.recentered[j0] - panel.recentered[jx] - integral
        assert w == pytest.approx(-reverse, abs=1e-12)

    def test_local_time_deriv_integrates_to_local_time(self):
        # the paper's dL/dx: under an atomless X_0, L(x) - L(0) is the integral
        # of local_time_deriv from 0 to x.  The trapezoid over the 0.025 panel
        # spacing leaves at most 0.035 over seeds 0-59 (a kink of G at a heavy
        # particle); with H's sign flipped the residual is at least 0.17 on
        # every one of those seeds, and with H dropped at least 0.088
        grid, sigma = np.linspace(-2.0, 2.0, 161), 0.3
        density = np.exp(-0.5 * (grid / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        mu, params = gridded_density(grid, density), make_params(0.5, 1000, 0.5)
        xs = np.linspace(-1.0, 1.0, 81)
        fns = [tanaka_panel_functional(0.5, xs), tanaka_event_functional(0.5, xs)]
        j0 = 40  # x = 0
        for seed in range(4):
            rec = simulate(mu, params, fns, RngStream(seed, 0), keep_path=False)
            panel = tanaka_panel_terms(rec, mu, 0.5)
            d = panel.local_time_deriv
            integral = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(xs))])
            residual = panel.local_time - panel.local_time[j0] - (integral - integral[j0])
            assert np.abs(residual).max() < 0.06, seed

    def test_panel_coverage_error(self, small_recorders):
        mu, _, recs = small_recorders
        panel = tanaka_panel_terms(recs[0], mu, 0.5)
        for x in (5.0, 0.1234):  # beyond the panel; inside it but not a point
            with pytest.raises(UsageError):
                ftc_check(panel, x)


MOMENTS = (
    "beta = 0.5\nn_scale = 500\nt_end = 0.3\nseed = 901\nreplicas = 120\nlam = 0.5\n"
    "snapshot_stride = 1000000000\n"
)


class TestMartingaleStructure:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 50.0])
    def test_increments_match_brute_force(self, small_recorders, lam):
        # one event-panel sum per distinct endpoint, shared by the pairs that
        # meet there, against the per-pair sum of net * (g(y - x1) - g(y - x2))
        # over the log of the small_recorders paths
        mu, params, _ = small_recorders
        pairs = [(-0.1, 0.1), (0.0, 0.4), (-0.7, -0.2), (0.1, 0.4), (-0.2, 0.0)]
        fns = [tanaka_event_functional(lam, sorted({x for pair in pairs for x in pair}))]
        for i in range(10):
            rec = simulate(mu, params, fns, RngStream(901, i))
            y, net = rec.event_locations, rec.event_net_mass
            brute = [np.sum((g_lambda(lam, y - x1) - g_lambda(lam, y - x2)) * net)
                     for x1, x2 in pairs]
            dm = martingale_increments(rec, lam, pairs)
            np.testing.assert_allclose(dm, brute, rtol=0, atol=1e-12)
        with pytest.raises(UsageError, match="no tanaka_event functional"):
            martingale_increments(rec, 2 * lam, pairs)

    def test_psi0_properties(self):
        y = np.linspace(-1, 1, 2001)
        vals = psi0(1.0, -0.25, 0.25, y)
        assert (vals >= 0).all()
        assert vals.max() <= 2.0
        assert (vals[(y < -0.25) | (y > 0.25)] == 0).all()

    def test_moment_zero_distance(self):
        # a pair with x1 >= x2 has no martingale increment, and a slope needs
        # two distances (one gave a RankWarning and an arbitrary slope)
        for bad in ("0.2 0", "0.2 -0.1", "0.1", "0.1 0.2 0.1"):
            with pytest.raises(ConfigError) as err:
                parse_config_text(MOMENTS + f"distances = {bad}\n", kind="moments")
            assert any("distances" in v for v in err.value.violations)

    def test_moment_endpoints_must_be_clock_bin_edges(self):
        # the clock's midpoint quadrature needs |g^{x1} - g^{x2}| smooth in
        # every bin: c +- 0.015 falls inside a bin of width 0.0125
        with pytest.raises(ConfigError) as err:
            parse_config_text(MOMENTS + "distances = 0.03\n", kind="moments")
        assert any("distances" in v and "0.015" in v for v in err.value.violations)
        parse_config_text(MOMENTS + "distances = 0.03\n", kind="simulate")

    def test_off_edge_search_matches_the_scan(self):
        # one search of the sorted edges against a scan of all of them per
        # endpoint: the same endpoints, in order, off, on, near and beyond
        # the edges, and at nan and +-inf
        edges = histogram_edges(-8.0, 8.0, 0.0125)
        gen = np.random.default_rng(30)
        for _ in range(300):
            xs = np.concatenate([gen.uniform(-9.0, 9.0, 5), gen.integers(-700, 700, 5) * 0.0125,
                                 gen.integers(-700, 700, 3) * 0.0125 + gen.normal(0, 1e-9, 3),
                                 gen.choice([math.nan, math.inf, -math.inf, -8.0, 8.0], 2)])
            scan = [x for x in xs if abs(edges - x).min() > 1e-9]
            assert endpoints_off_edges(edges, xs) == scan

    def test_moment_q_domain(self):
        for bad_q in (1.0, 1.5, 2.0, 0.8):
            with pytest.raises(ConfigError) as err:
                parse_config_text(MOMENTS + f"q_moment = {bad_q}\n", kind="moments")
            assert any("q_moment" in v for v in err.value.violations)

    def test_moment_slope_positive(self, tmp_path):
        # the small_recorders paths, one pair centered at 0 per distance
        cfg = parse_config_text(
            MOMENTS + "q_moment = 1.2\ndistances = 0.4 0.2 0.1\npair_centers = 0\n",
            kind="moments",
        )
        cfg.out = str(tmp_path / "moments")
        assert 0.3 < run_experiment(cfg).extra["slope"] < 1.3

    def test_sup_moment_stable_over_n(self):
        # Lemma-2.2-shaped check: E sup_s |M_s(psi)|^q stays bounded as N grows
        q = 1.25
        estimates = []
        for n_scale in (250, 500, 1000):
            p = make_params(0.5, n_scale, 0.3, snapshot_stride=10**9)
            sups = []
            for i in range(60):
                rec = simulate(dirac(0.0), p, [], RngStream(25, i))
                vals = g_lambda(1.0, rec.event_locations) * rec.event_net_mass
                running = np.cumsum(vals)
                sups.append(np.abs(running).max() ** q if running.size else 0.0)
            estimates.append(np.mean(sups))
        ratio = max(estimates) / min(estimates)
        assert ratio < 3.0
