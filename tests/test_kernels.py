"""Heat kernel, Green's function (numeric vs closed form), derivative
kernel, measure functionals, and one-sided derivatives at atoms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sbmlab.kernels import g_lambda, green_closed, green_numeric, heat_kernel
from sbmlab.measures import (
    FiniteMeasure,
    dirac,
    gridded_density,
    load_measure,
    save_measure,
)


def green_one_sided_derivatives(mu: FiniteMeasure, lam: float, x: float) -> tuple[float, float]:
    """One-sided derivatives (right, left) of x -> <mu, G_lambda(. - x)>:
    <mu, g_lambda(x - .)> -/+ mu({x}), which coincide exactly when mu has no
    atom at x."""
    base = mu.integrate(lambda y: g_lambda(lam, x - y))
    atom = float(mu.atom_masses[mu.atom_locations == x].sum())
    return base - atom, base + atom


class TestHeatKernel:
    def test_value_at_origin(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-12)

    def test_normalization(self):
        val, _ = quad(lambda x: heat_kernel(0.37, x), -20, 20, epsabs=1e-12)
        assert abs(val - 1.0) < 1e-10

    def test_scaling(self):
        s, x = 4.0, 2.0
        lhs = heat_kernel(s, x)
        rhs = s**-0.5 * heat_kernel(1.0, x / math.sqrt(s))
        assert abs(lhs - rhs) < 1e-14

    def test_dim2(self):
        xy = np.array([0.3, -0.4])
        prod = heat_kernel(0.5, 0.3) * heat_kernel(0.5, -0.4)
        assert heat_kernel(0.5, xy, dim=2) == pytest.approx(prod, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel(-1.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel(1.0, 1.0, dim=3)


class TestGreen:
    def test_numeric_examples(self):
        assert abs(green_numeric(0.5, 0.0) - 1.0) < 1e-8
        assert abs(green_numeric(2.0, 1.0) - 0.5 * math.exp(-2.0)) < 1e-8

    def test_numeric_symmetry(self):
        assert abs(green_numeric(1.0, 0.7) - green_numeric(1.0, -0.7)) < 1e-10

    def test_numeric_vs_closed_grid(self):
        for lam in (0.25, 1.0, 4.0):
            for x in np.linspace(-6, 6, 50):
                assert abs(green_numeric(lam, x) - green_closed(lam, x)) < 1e-8

    def test_closed_values(self):
        assert green_closed(0.5, 0.0) == pytest.approx(1.0)
        assert green_closed(2.0, 0.0) == pytest.approx(0.5)

    def test_lipschitz_random_pairs(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, 10**4)
        y = rng.uniform(-5, 5, 10**4)
        lhs = np.abs(green_closed(1.0, x) - green_closed(1.0, y))
        assert (lhs <= np.abs(x - y) + 1e-15).all()

    def test_max_and_monotone_decay(self):
        for lam in (0.25, 1.0, 4.0):
            xs = np.linspace(0, 8, 400)
            vals = green_closed(lam, xs)
            assert vals[0] == pytest.approx(1 / math.sqrt(2 * lam))
            assert (np.diff(vals) < 0).all()
            assert vals.max() == vals[0]


class TestDerivativeKernel:
    def test_values(self):
        assert g_lambda(1.0, 0.0) == 0.0
        assert g_lambda(0.5, 1.0) == pytest.approx(-math.exp(-1.0), abs=1e-14)

    def test_odd(self):
        assert g_lambda(2.0, -0.3) == pytest.approx(-g_lambda(2.0, 0.3), abs=1e-15)

    @given(x=st.floats(-10, 10), lam=st.floats(0.05, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, x, lam):
        assert abs(g_lambda(lam, x)) <= 1.0

    def test_off_interval_lipschitz(self):
        # |g(y-x1) - g(y-x2)| <= sqrt(2 lam)|x1-x2| for y outside [x1, x2]
        rng = np.random.default_rng(1)
        lam = 1.3
        a = math.sqrt(2 * lam)
        for _ in range(4):
            x1 = rng.uniform(-3, 3, 2500)
            x2 = x1 + rng.uniform(0, 2, 2500)
            y = np.where(
                rng.random(2500) < 0.5,
                x1 - rng.uniform(1e-9, 4, 2500),
                x2 + rng.uniform(1e-9, 4, 2500),
            )
            lhs = np.abs(g_lambda(lam, y - x1) - g_lambda(lam, y - x2))
            assert (lhs <= a * (x2 - x1) + 1e-12).all()


class TestMeasureApply:
    def test_dirac_green(self):
        assert dirac(0.0).integrate(lambda y: green_closed(0.5, y)) == pytest.approx(1.0)

    def test_constant(self):
        grid = np.linspace(-1, 2, 301)
        mu = FiniteMeasure(
            np.array([0.5]), np.array([2.0]), grid, np.full(grid.size, 0.25)
        )
        c = 3.7
        assert mu.integrate(lambda y: np.full(np.shape(y), c)) == pytest.approx(
            c * mu.total_mass, rel=1e-12
        )

    def test_lebesgue_linear(self):
        grid = np.linspace(0, 1, 2001)
        mu = gridded_density(grid, np.ones(grid.size))
        assert mu.integrate(lambda y: y) == pytest.approx(0.5, abs=1e-9)


class TestOneSidedDerivatives:
    def test_dirac_at_atom(self):
        right, left = green_one_sided_derivatives(dirac(0.0), 1.0, 0.0)
        assert right == pytest.approx(-1.0)
        assert left == pytest.approx(1.0)

    def test_atomless_equal(self):
        grid = np.linspace(-2, 2, 801)
        mu = gridded_density(grid, np.exp(-grid**2))
        right, left = green_one_sided_derivatives(mu, 0.7, 0.4)
        assert right == left

    def test_dirac_off_atom(self):
        # x -> G_{1/2}(0 - x) = e^{-|x|}; slope at x=1 is -e^{-1} on both sides
        right, left = green_one_sided_derivatives(dirac(0.0), 0.5, 1.0)
        assert right == pytest.approx(-math.exp(-1.0), abs=1e-14)
        assert left == pytest.approx(-math.exp(-1.0), abs=1e-14)

    def test_finite_difference_oracle(self):
        grid = np.linspace(-1, 1, 40001)
        mu = FiniteMeasure(np.array([0.0]), np.array([1.0]), grid, np.ones(grid.size))
        lam, h = 1.0, 1e-6

        def field(x):
            return mu.integrate(lambda y: green_closed(lam, y - x))

        for x in (0.3, 0.0, 1.5, -0.7):
            right, left = green_one_sided_derivatives(mu, lam, x)
            fd_right = (field(x + h) - field(x)) / h
            fd_left = (field(x) - field(x - h)) / h
            assert abs(right - fd_right) < 1e-4
            assert abs(left - fd_left) < 1e-4


class TestMeasureIO:
    def test_roundtrip(self, tmp_path):
        grid = np.linspace(-1, 1, 11)
        mu = FiniteMeasure(
            np.array([-0.5, 0.25]), np.array([0.125, 2.0]), grid, np.abs(grid)
        )
        path = tmp_path / "measure.txt"
        save_measure(mu, path)
        back = load_measure(path)
        assert np.array_equal(back.atom_locations, mu.atom_locations)
        assert np.array_equal(back.atom_masses, mu.atom_masses)
        assert np.array_equal(back.density_grid, mu.density_grid)
        assert np.array_equal(back.density_values, mu.density_values)
        assert back.total_mass == mu.total_mass

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("atoms 2\n0.0 1.0\n")
        with pytest.raises(ValueError):
            load_measure(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteMeasure(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                          np.array([]), np.array([]))
        with pytest.raises(ValueError):
            FiniteMeasure(np.array([0.0]), np.array([-1.0]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            gridded_density(np.array([0.0, 1.0]), np.array([1.0, -0.5]))

    def test_sampling_zero_measure(self):
        mu = gridded_density(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            mu.sample_positions(np.random.default_rng(0), 5)
