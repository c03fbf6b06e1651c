"""Mild-equation solver, and the Laplace-functional duality check run
through the harness."""
import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as scipy_fft

from sbmlab.config import parse_config_text
from sbmlab import loglaplace
from sbmlab.errors import NumericsError
from sbmlab.harness import run_experiment
from sbmlab.loglaplace import (
    _BLOCK_ROWS,
    GridSpec,
    HeatSemigroup,
    _next_fast_len,
    _trapezoid_weights,
    heat_matrix,
    smoothed_indicator,
    solve_mild,
)


def constant_phi(c):
    return lambda y: np.full(np.shape(y), float(c))


def _dense_solve_mild(phi, t_end, beta, grids, tol=1e-9, max_iterations=200):
    """Reference: the same discrete scheme, solved by Picard sweeps over the
    full space-time grid with every heat_matrix formed densely; returns
    (values, iterations)."""
    x_grid = grids.x_grid
    phi_vals = phi(x_grid)
    nt, nx, j_sub = grids.nt, grids.nx, grids.substeps
    delta = t_end / nt
    mats = [heat_matrix(k * delta, x_grid) for k in range(nt + 1)]
    sub_mats = [heat_matrix(j * delta / j_sub, x_grid) for j in range(j_sub)]
    pt_phi = np.array([mats[i] @ phi_vals for i in range(nt + 1)])
    v = pt_phi.copy()
    for iteration in range(1, max_iterations + 1):
        w = np.maximum(v, 0.0) ** (1.0 + beta)
        pw = np.empty((nt, nt + 1, nx))
        for k in range(1, nt):
            pw[k] = (mats[k] @ w.T).T
        v_new = pt_phi.copy()
        for i in range(1, nt + 1):
            acc = np.zeros(nx)
            for j in range(j_sub):
                frac = j / j_sub
                w_interp = (1.0 - frac) * w[i] + frac * w[i - 1]
                acc += sub_mats[j] @ w_interp if j > 0 else w_interp
            v_new[i] -= acc * (delta / j_sub)
            for k in range(1, i):
                v_new[i] -= delta * pw[k, i - k]
        v_new = np.maximum(v_new, 0.0)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < tol:
            return v, iteration
    raise AssertionError("dense reference did not converge")


def edge_phi(grids):
    """The duality test function plus a plateau over the last unit of the
    domain, so the rows whose kernel the boundary cuts carry mass."""
    bump = smoothed_indicator(-1, 1, 0.5, 0.25)
    edge = smoothed_indicator(grids.x_max - 1.0, grids.x_max + 1.0, 0.4, 0.5)
    return lambda y: bump(y) + edge(y)


DENSE_GRIDS = [
    GridSpec(nx=51, nt=10),
    GridSpec(nx=101, nt=12),
    GridSpec(-3, 7, 81, 20),
    GridSpec(-5, 5, 81, 20, substeps=1),
    GridSpec(-5, 5, 81, 20, substeps=4),
    GridSpec(-4, 4, 51, 1),
    GridSpec(nx=401, nt=100),
    GridSpec(nx=401, nt=150),
]


def grid_id(g):
    return f"{g.x_min:g}:{g.x_max:g}x{g.nx}x{g.nt}s{g.substeps}"


@functools.lru_cache(maxsize=None)
def dense_fixed_point(grids):
    """The discrete solution for edge_phi at t = 0.5, beta = 0.5: the dense
    reference iterated until its sweeps change nothing above 1e-14."""
    return _dense_solve_mild(edge_phi(grids), 0.5, 0.5, grids, tol=1e-14)[0]


class TestSolver:
    def test_zero_phi_fixed_point(self):
        sol = solve_mild(constant_phi(0.0), 0.5, 0.5, GridSpec(nx=51, nt=10))
        assert np.abs(sol.values).max() == 0.0
        assert sol.iterations <= 2

    def test_constant_closed_form(self):
        # spatially constant data reduces to v' = -v^{1+beta}:
        # v(t) = (c^{-beta} + beta t)^(-1/beta); beta=0.5, c=1, t=1 -> 4/9
        g = GridSpec(x_min=-6, x_max=6, nx=101, nt=100)
        sol = solve_mild(constant_phi(1.0), 1.0, 0.5, g)
        target = 4.0 / 9.0
        err_100 = abs(sol.values[-1, 50] - target)
        assert err_100 < 5e-3  # first-order time scheme at nt=100
        sol2 = solve_mild(constant_phi(1.0), 1.0, 0.5, GridSpec(-6, 6, 101, 200))
        err_200 = abs(sol2.values[-1, 50] - target)
        assert err_200 < err_100
        assert 1.5 < err_100 / err_200 < 3.0  # observed order ~1

    def test_constant_stays_spatially_flat(self):
        sol = solve_mild(constant_phi(0.7), 0.5, 0.3, GridSpec(-5, 5, 81, 40))
        assert np.max(sol.values.max(axis=1) - sol.values.min(axis=1)) < 1e-12

    def test_first_iterate_bound_small_t(self):
        g = GridSpec(-4, 4, 201, 4)
        phi = smoothed_indicator(-1, 1, 0.5, 0.25)
        sol = solve_mild(phi, 1e-3, 0.5, g)
        heat = HeatSemigroup(sol.t_grid[1:], g.x_grid)
        lin = heat.apply(slice(None), heat.transform(phi(g.x_grid)))  # P_t phi
        gap = np.abs(sol.values[1:] - lin).max()
        assert gap <= 1e-3 * 0.5**1.5 + 1e-12

    def test_bounds_and_residual(self):
        phi = smoothed_indicator(-1, 1, 0.8, 0.3)
        sol = solve_mild(phi, 0.5, 0.5, GridSpec(-6, 6, 121, 30), tol=1e-9)
        assert (sol.values >= 0).all()
        assert sol.values.max() <= 0.8 + 1e-12
        assert sol.residual < 1e-9

    def test_monotone_in_phi(self):
        rng = np.random.default_rng(2)
        g = GridSpec(-5, 5, 81, 20)
        for _ in range(6):
            base = rng.uniform(0.1, 0.6)
            bump = rng.uniform(0.0, 0.5)
            phi1 = smoothed_indicator(-1, 1, base, 0.4)
            phi2 = lambda y, b=base, u=bump: phi1(y) + u * np.exp(-(y**2))
            v1 = solve_mild(phi1, 0.4, 0.5, g)
            v2 = solve_mild(phi2, 0.4, 0.5, g)
            assert (v2.values >= v1.values - 1e-9).all()

    def test_linear_mode_matches_semigroup(self):
        # V_t lies below P_t phi (dense) by at most t max(phi)^(1+beta): the
        # branching term integrates P_s V^(1+beta) <= max(phi)^(1+beta) over [0, t]
        g = GridSpec(-5, 5, 101, 20)
        phi = smoothed_indicator(-1, 1, 0.5, 0.25)
        sol = solve_mild(phi, 0.5, 0.5, g)
        phi_vals = phi(g.x_grid)
        for i, t in enumerate(sol.t_grid):
            gap = heat_matrix(t, g.x_grid) @ phi_vals - sol.values[i]
            assert gap.min() >= -1e-8 and gap.max() <= t * 0.5**1.5 + 1e-8

    @pytest.mark.parametrize("grids", DENSE_GRIDS, ids=grid_id)
    def test_matches_dense_reference(self, grids):
        sol = solve_mild(edge_phi(grids), 0.5, 0.5, grids, tol=1e-14)
        assert np.abs(sol.values - dense_fixed_point(grids)).max() <= 1e-12

    @pytest.mark.parametrize("grids", DENSE_GRIDS, ids=grid_id)
    def test_default_tol_reaches_fixed_point(self, grids):
        sol = solve_mild(edge_phi(grids), 0.5, 0.5, grids)
        assert np.abs(sol.values - dense_fixed_point(grids)).max() <= 1e-9

    def test_semigroup_matches_heat_matrix(self):
        # from 8 sqrt(s) < h (the identity) to 8 sqrt(s) beyond the domain
        x = GridSpec(-3, 7, 81, 20).x_grid
        h, span = x[1] - x[0], x[-1] - x[0]
        times = np.geomspace(1e-5, 10.0, 16)
        assert 8 * math.sqrt(times[0]) < h and 8 * math.sqrt(times[-1]) > span
        u = np.random.default_rng(3).uniform(0.0, 1.0, (3, x.size))
        u[0, -1] = u[0, 0] = 5.0  # mass on the boundary points
        heat = HeatSemigroup(times, x)
        u_hat = heat.transform(u)
        for k, s in enumerate(times):
            want = (heat_matrix(s, x) @ u.T).T
            assert np.abs(heat.apply(k, u_hat) - want).max() <= 1e-12
        assert np.abs(heat.apply(0, u_hat) - u).max() <= 1e-12
        with pytest.raises(ValueError):
            HeatSemigroup([0.0], x)

    def test_semigroup_holds_no_transform_buffers(self):
        # a view would keep the complex spectrum, or the full-length inverse
        # transform, alive for the whole solve
        heat = HeatSemigroup([0.1, 0.2], GridSpec().x_grid)
        for array, width in ((heat.spectra, heat.n_fft // 2 + 1), (heat.row_sums, heat.nx)):
            assert array.base is None and array.flags.c_contiguous
            assert array.shape == (2, width) and array.dtype == np.float64

    @pytest.mark.parametrize(
        "n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 150],
        ids=["0", "1", "block-1", "block", "block+1", "all"],
    )
    def test_blocked_sum_is_the_one_shot_sum(self, n):
        # the solve's rectangle sums, over the rows of w_hat in reverse
        x = GridSpec().x_grid
        heat = HeatSemigroup(np.arange(1, 151) / 300.0, x)
        u = np.random.default_rng(11).uniform(0.0, 1.0, (150, x.size))
        u_hat = heat.transform(u)[:n][::-1]
        want = heat.apply(slice(0, n), u_hat).sum(axis=0)
        np.testing.assert_array_equal(heat.apply_sum(u_hat), want)

    def test_blocked_build_is_the_one_shot_build(self, monkeypatch):
        x = GridSpec().x_grid
        times = np.arange(1, 151) / 300.0
        blocked = HeatSemigroup(times, x)
        monkeypatch.setattr(loglaplace, "_BLOCK_ROWS", times.size)
        one_shot = HeatSemigroup(times, x)
        np.testing.assert_array_equal(blocked.spectra, one_shot.spectra)
        np.testing.assert_array_equal(blocked.row_sums, one_shot.row_sums)

    def test_solve_transients_span_one_block(self):
        # the arrays a 401 x 150 solve keeps come to about 2.45 MB; what the
        # tracer sees above them is one block of rows at a time (about 2.1
        # blocks of 16 rows, 0.43 MB); the one-shot transforms traced 9.6
        # such blocks, 2.0 MB
        g = GridSpec(nx=401, nt=150)
        phi = smoothed_indicator(-1, 1, 0.5, 0.25)
        solve_mild(phi, 0.5, 0.5, GridSpec(nx=51, nt=3))  # imports and caches
        tracemalloc.start()
        try:
            sol = solve_mild(phi, 0.5, 0.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_fft = _next_fast_len(2 * g.nx - 1)
        width = n_fft // 2 + 1
        kept = (sol.values.nbytes  # the solution
                + (g.nt + 1) * width * 16  # the spectra of W w
                + (g.nt + g.substeps - 1) * (width + g.nx) * 8)  # both semigroups
        block = _BLOCK_ROWS * (n_fft * 8 + width * 16)  # a real and a complex row each
        assert peak - kept <= 3 * block

    def test_fft_length_is_scipy_next_fast_len(self):
        ns = range(1, 5001)
        assert [_next_fast_len(n) for n in ns] == [
            scipy_fft.next_fast_len(n, real=True) for n in ns
        ]

    def test_semigroup_bit_equal_to_scipy_fft(self):
        # numpy.fft and scipy.fft share the pocketfft algorithms; at the
        # solver's shapes they give the same bits: 401 points, one time per
        # row of the duality grid and its substeps, applied to one function
        # or to one function per time
        x = GridSpec().x_grid
        times = np.concatenate([np.arange(1, 4) / 600.0, np.arange(1, 151) / 150.0])
        u = np.random.default_rng(5).uniform(0.0, 1.0, (times.size, x.size))
        heat = HeatSemigroup(times, x)
        got = [heat.apply(slice(None), heat.transform(v)) for v in (u[0], u)]

        n_fft = scipy_fft.next_fast_len(2 * x.size - 1, real=True)
        w = _trapezoid_weights(x)
        lag = np.arange(n_fft)
        d = np.minimum(lag, n_fft - lag) * (x[1] - x[0])
        s = times[:, None]
        kernel = np.exp(-d * d / (2.0 * s))
        kernel[d > 8.0 * np.sqrt(s)] = 0.0
        spectra = scipy_fft.rfft(kernel, axis=-1).real

        def convolve(spec, v_hat):
            return scipy_fft.irfft(spec * v_hat, n=n_fft, axis=-1)[..., : x.size]

        row_sums = convolve(spectra, scipy_fft.rfft(w, n=n_fft))
        want = [convolve(spectra, scipy_fft.rfft(w * v, n=n_fft, axis=-1)) / row_sums
                for v in (u[0], u)]
        assert heat.n_fft == n_fft
        np.testing.assert_array_equal(heat.spectra, spectra)
        np.testing.assert_array_equal(heat.row_sums, row_sums)
        for g, wnt in zip(got, want):
            np.testing.assert_array_equal(g, wnt)

    def test_grid_refinement_cauchy(self):
        phi = smoothed_indicator(-1, 1, 0.5, 0.25)
        sols = [
            solve_mild(phi, 0.5, 0.5, GridSpec(-8, 8, nx, nt))
            for nx, nt in [(101, 12), (201, 24), (401, 48)]
        ]
        # compare on the common coarse grid (every 2nd / 4th point)
        v1 = sols[0].values[-1]
        v2 = sols[1].values[-1, ::2]
        v3 = sols[2].values[-1, ::4]
        err21 = np.abs(v2 - v1).max()
        err32 = np.abs(v3 - v2).max()
        assert err32 < err21
        assert err32 <= 2.0 * err21  # within 4x the extrapolated halving estimate

    def test_nonconvergence_raises(self):
        # row 1 (t = 1/30) is the first to need more than 2 iterations
        with pytest.raises(NumericsError, match=r"row 1 \(t = 0\.0333333\)"):
            solve_mild(constant_phi(1.0), 1.0, 0.5, GridSpec(-4, 4, 51, 30),
                       max_iterations=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_mild(constant_phi(-1.0), 1.0, 0.5, GridSpec(nx=51, nt=10))
        with pytest.raises(ValueError):
            solve_mild(constant_phi(1.0), 0.0, 0.5, GridSpec(nx=51, nt=10))


def run_duality(tmp_path, settings):
    """The harness duality run at beta = 0.5 with phi the smoothed indicator
    of [-1, 1] (ramp 0.25) and the given settings; returns the report."""
    cfg = parse_config_text("beta = 0.5\n" + settings, kind="duality")
    cfg.out = str(tmp_path / "duality")
    return run_experiment(cfg)


class TestDuality:
    def test_phi_zero_exact(self, tmp_path):
        rep = run_duality(
            tmp_path,
            "phi_height = 0\nt_end = 0.2\nn_scale = 50\nreplicas = 4\nseed = 1\n"
            "solver_x_min = -4\nsolver_x_max = 4\nsolver_nx = 51\nsolver_nt = 10\n",
        )
        e = rep.extra
        assert e["lhs"] == 1.0 and e["rhs"] == 1.0 and e["z_score"] == 0.0

    def test_short_time_limit(self, tmp_path):
        # t -> 0: both sides approach exp(-<mu, phi>)
        rep = run_duality(
            tmp_path,
            "t_end = 0.001\nn_scale = 500\nreplicas = 100\nseed = 2\n"
            "solver_x_min = -4\nsolver_x_max = 4\nsolver_nx = 201\nsolver_nt = 8\n",
        )
        target = math.exp(-smoothed_indicator(-1, 1, 0.5, 0.25)(np.array([0.0]))[0])
        # both sides sit within O(t (max phi)^{1+beta}) of the limit
        slack = 1e-3 * 0.5**1.5
        e = rep.extra
        assert abs(e["rhs"] - target) < 1e-3
        assert abs(e["lhs"] - target) <= 3 * e["lhs_se"] + slack

    def test_moderate_config_agrees(self, tmp_path):
        # smaller sibling of the acceptance run
        rep = run_duality(
            tmp_path,
            "t_end = 0.5\nn_scale = 1000\nreplicas = 120\nseed = 7\n"
            "solver_nx = 301\nsolver_nt = 60\nsnapshot_stride = 1000000000\n",
        )
        assert rep.extra["z_score"] <= 3.0
        assert rep.censoring_rate == 0.0
