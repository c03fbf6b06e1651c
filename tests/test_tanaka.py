"""Local time estimation, the Tanaka decomposition, the derivative field,
and martingale increment structure (its moments run through the harness)."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from sbmlab.config import parse_config_text
from sbmlab.errors import ConfigError, UsageError
from sbmlab.harness import run_experiment
from sbmlab.kernels import g_lambda, heat_kernel
from sbmlab.measures import dirac
from sbmlab.particles import OccupationFunctional, make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.tanaka import (
    estimate_local_time,
    exp_kernel_sums,
    ftc_check,
    histogram_functional,
    kernel_panel_functional,
    martingale_split,
    psi0,
    tanaka_panel_functional,
    tanaka_panel_terms,
    tanaka_terms,
)


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


class TestLocalTimeEstimate:
    def test_zero_at_time_zero(self, small_recorders, panel_grid):
        _, _, recs = small_recorders
        est = estimate_local_time(recs[0], 0.0, panel_grid, 0.1)
        assert (est.values == 0.0).all()

    def test_quadrature_matches_total_occupation(self, small_recorders):
        _, _, recs = small_recorders
        wide = np.linspace(-6, 6, 241)
        for rec in recs[:10]:
            est = estimate_local_time(rec, 0.3, wide, 0.1)
            total = rec.total_occupation_at(0.3)
            assert np.trapezoid(est.values, wide) == pytest.approx(total, rel=0.01)

    def test_nondecreasing_in_time(self, small_recorders, panel_grid):
        _, _, recs = small_recorders
        rec = recs[0]
        e1 = estimate_local_time(rec, 0.15, panel_grid, 0.1)
        e2 = estimate_local_time(rec, 0.3, panel_grid, 0.1)
        assert (e2.values >= e1.values - 1e-12).all()

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
        fns = [kernel_panel_functional(bw, np.array([0.0]))]
        vals = []
        for i in range(150):
            rec = simulate(mu, p, fns, RngStream(21, i))
            vals.append(estimate_local_time(rec, t, np.array([0.0]), bw).values[0])
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - closed) <= 3 * se

    def test_histogram_route_matches_kernel_panel(self):
        # two recorders of one path (functionals draw no random numbers):
        # the kernel panel is exact, the other recorder has only the histogram
        t, bw = 0.2, 0.12
        xs = np.linspace(-1, 1, 21)
        p = make_params(0.5, 400, t, snapshot_stride=10**9)
        panel = simulate(dirac(0.0), p, [kernel_panel_functional(bw, xs)], RngStream(22, 0))
        binned = simulate(dirac(0.0), p, [histogram_functional(-8, 8, bw / 8)], RngStream(22, 0))
        exact = estimate_local_time(panel, t, xs, bw)
        est = estimate_local_time(binned, t, xs, bw)
        assert exact.source == "kernel_panel"
        assert est.source == "histogram"
        assert np.array_equal(exact.values, panel.occupations[f"kernel_panel:{bw:g}"].at(t))
        assert np.abs(est.values - exact.values).max() < 0.01 * max(1.0, exact.values.max())

    def test_no_accumulator_usage_error(self, small_recorders):
        p = make_params(0.5, 200, 0.1, snapshot_stride=5)
        rec = simulate(dirac(0.0), p, [], RngStream(23, 0))
        with pytest.raises(UsageError):
            estimate_local_time(rec, 0.1, np.linspace(-1, 1, 11), 0.2)
        # a histogram too coarse for the bandwidth or too narrow for the grid
        _, _, recs = small_recorders
        for xs, bw in ((np.linspace(-1, 1, 11), 0.05), (np.linspace(-7, 7, 11), 0.3)):
            with pytest.raises(UsageError):
                estimate_local_time(recs[0], 0.3, xs, bw)

    def test_bandwidth_below_resolution_warns(self, panel_grid):
        p = make_params(0.5, 200, 0.1, snapshot_stride=10**9)
        rec = simulate(dirac(0.0), p, [kernel_panel_functional(0.01, panel_grid)], RngStream(23, 0))
        est = estimate_local_time(rec, 0.1, panel_grid, 0.01)
        assert any("below" in w for w in est.warnings)

    def test_bandwidth_validation(self, small_recorders, panel_grid):
        _, _, recs = small_recorders
        with pytest.raises(ValueError):
            estimate_local_time(recs[0], 0.3, panel_grid, 0.0)


class TestTanakaDecomposition:
    def test_time_zero_trivial(self, small_recorders):
        # at t=0 the reconstruction collapses: L = 0 and the recentered /
        # derivative fields reduce to minus the initial-measure terms
        mu, _, recs = small_recorders
        d = tanaka_terms(recs[0], mu, 0.5, 0.0, 0.25)
        assert d.local_time == pytest.approx(0.0, abs=1e-14)
        assert d.term_occupation == 0.0 and d.term_martingale == 0.0
        assert d.recentered == pytest.approx(-d.term_initial, abs=1e-14)
        assert d.deriv_field == pytest.approx(-d.deriv_initial, abs=1e-14)

    def test_algebraic_identity_exact(self, small_recorders):
        mu, _, recs = small_recorders
        for rec in recs[:10]:
            d = tanaka_terms(rec, mu, 0.5, 0.3, 0.25)
            assert d.recentered == -d.term_terminal + d.term_occupation + d.term_martingale
            assert d.local_time == d.term_initial + d.recentered

    def test_lambda_robustness(self, small_recorders):
        # Eq-level lambda-independence of the reconstruction, paired test
        mu, _, recs = small_recorders
        diffs = []
        for rec in recs:
            a = tanaka_terms(rec, mu, 0.5, 0.3, 0.25).local_time
            b = tanaka_terms(rec, mu, 2.0, 0.3, 0.25).local_time
            diffs.append(a - b)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert abs(diffs.mean()) <= 3 * se

    def test_offpanel_point_usage_error(self, small_recorders):
        mu, _, recs = small_recorders
        with pytest.raises(UsageError):
            tanaka_terms(recs[0], mu, 0.5, 0.3, 0.1234)  # not a panel point
        with pytest.raises(UsageError):
            tanaka_terms(recs[0], mu, 1.0, 0.3, 0.25)  # no panel at this lambda

    def test_panel_terms_match_scalar_route(self, small_recorders, panel_grid):
        mu, _, recs = small_recorders
        rec = recs[0]
        panel = tanaka_panel_terms(rec, mu, 0.5, 0.3)
        j = int(np.argmin(np.abs(panel_grid - 0.25)))
        d = tanaka_terms(rec, mu, 0.5, 0.3, float(panel_grid[j]))
        assert panel.local_time[j] == pytest.approx(d.local_time, rel=1e-12)
        assert panel.deriv_field[j] == pytest.approx(d.deriv_field, rel=1e-12)

    def test_missing_panel_usage_error(self):
        p = make_params(0.5, 100, 0.05)
        rec = simulate(dirac(0.0), p, [], RngStream(24, 0))
        with pytest.raises(UsageError):
            tanaka_panel_terms(rec, dirac(0.0), 1.0, 0.05)

    def test_lambda_validation(self, small_recorders):
        mu, _, recs = small_recorders
        with pytest.raises(ValueError):
            tanaka_terms(recs[0], mu, 0.0, 0.3, 0.25)


class TestFtcCheck:
    def test_zero_at_origin_and_time_zero(self, small_recorders):
        mu, _, recs = small_recorders
        assert ftc_check(tanaka_panel_terms(recs[0], mu, 0.5, 0.3), 0.0) == 0.0
        assert ftc_check(tanaka_panel_terms(recs[0], mu, 0.5, 0.0), 0.5) == 0.0

    def test_small_residual(self, small_recorders):
        mu, _, recs = small_recorders
        vals = [abs(ftc_check(tanaka_panel_terms(rec, mu, 0.5, 0.3), 0.5)) for rec in recs[:40]]
        assert np.mean(vals) < 0.05

    def test_negative_x(self, small_recorders):
        mu, _, recs = small_recorders
        panel = tanaka_panel_terms(recs[0], mu, 0.5, 0.3)
        w = ftc_check(panel, -0.5)
        assert np.isfinite(w)
        # the residual of the reversed range: -W(-0.5) = Z(0) - Z(-0.5) - int_{-0.5}^0 H
        j0, jx = 20, 10
        assert panel.xs[jx] == pytest.approx(-0.5) and panel.xs[j0] == pytest.approx(0.0)
        integral = np.trapezoid(panel.deriv_field[jx : j0 + 1], panel.xs[jx : j0 + 1])
        reverse = panel.recentered[j0] - panel.recentered[jx] - integral
        assert w == pytest.approx(-reverse, abs=1e-12)

    def test_panel_coverage_error(self, small_recorders):
        mu, _, recs = small_recorders
        panel = tanaka_panel_terms(recs[0], mu, 0.5, 0.3)
        for x in (5.0, 0.1234):  # beyond the panel; inside it but not a point
            with pytest.raises(UsageError):
                ftc_check(panel, x)


MOMENTS = (
    "beta = 0.5\nn_scale = 500\nt_end = 0.3\nseed = 901\nreplicas = 120\nlam = 0.5\n"
    "snapshot_stride = 1000000000\n"
)


class TestMartingaleStructure:
    def test_split_identity_exact(self, small_recorders):
        mu, _, recs = small_recorders
        for rec in recs[:10]:
            for (x1, x2) in [(-0.1, 0.1), (0.0, 0.4), (-0.7, -0.2)]:
                i_part, z_part = martingale_split(rec, 1.0, x1, x2, 0.3)
                sl = rec.events_until(0.3)
                y = rec.event_locations[sl]
                net = rec.event_net_mass[sl]
                dm = float(
                    np.sum((g_lambda(1.0, y - x1) - g_lambda(1.0, y - x2)) * net)
                )
                assert i_part - z_part == pytest.approx(dm, abs=1e-12)

    def test_psi0_properties(self):
        y = np.linspace(-1, 1, 2001)
        vals = psi0(1.0, -0.25, 0.25, y)
        assert (vals >= 0).all()
        assert vals.max() <= 2.0
        assert (vals[(y < -0.25) | (y > 0.25)] == 0).all()

    def test_moment_zero_distance(self):
        # a pair with x1 >= x2 has no martingale split; the config says so
        for bad in ("0.2 0", "0.2 -0.1"):
            with pytest.raises(ConfigError) as err:
                parse_config_text(MOMENTS + f"distances = {bad}\n", kind="moments")
            assert any("distances" in v for v in err.value.violations)

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
