"""Criterion series arithmetic, Holder exponent estimation, and the
occupation-density refinement probe."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbmlab.continuity import (
    CriterionParams,
    check_exponent_conditions,
    gs_series,
    holder_exponent,
    modulus_tail_sum,
    probe_functionals,
    unboundedness_probe,
)
from sbmlab.errors import UsageError
from sbmlab.measures import dirac
from sbmlab.particles import make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.tanaka import histogram_edges, histogram_functional


class TestExponentConditions:
    def test_admissible_example(self):
        c = check_exponent_conditions(0.5, 0.2, 1.4)
        assert c.all_ok
        assert c.gamma_lt_one_minus_inv_q  # 0.2 < 1 - 1/1.4 = 0.2857...
        assert c.one_minus_inv_q_lt_beta_ratio  # 0.2857... < 1/3

    def test_boundary_gamma_excluded(self):
        for q in (1.2, 1.4, 1.49):
            assert not check_exponent_conditions(0.5, 1.0 / 3.0, q).all_ok

    def test_boundary_q_excluded(self):
        assert not check_exponent_conditions(0.5, 0.2, 1.0).all_ok

    @given(
        beta=st.floats(0.05, 0.95),
        gamma=st.floats(-0.5, 1.5),
        q=st.floats(0.1, 3.0),
    )
    # on the boundary gamma = 1 - 1/q, where float evaluation of the two
    # sides of equivalence a rounds apart
    @example(beta=0.5, gamma=1.0 / 3.0, q=1.5)
    @settings(max_examples=200, deadline=None)
    def test_equivalences_hypothesis(self, beta, gamma, q):
        c = check_exponent_conditions(beta, gamma, q)
        assert c.equivalence_a_agrees
        assert c.equivalence_b_agrees
        assert c.implication_b_holds

    def test_equivalences_bulk_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10**4):
            c = check_exponent_conditions(
                rng.uniform(0.02, 0.98), rng.uniform(-1, 2), rng.uniform(0.05, 4)
            )
            assert c.equivalence_a_agrees and c.equivalence_b_agrees
            assert c.implication_b_holds


class TestSeries:
    def test_g_closed_form_example(self):
        # gamma=0.5, K=1: 3 / (1 - 2^{-1/2})
        target = 3.0 / (1.0 - 2.0**-0.5)
        assert modulus_tail_sum(0.5, 1.0) == pytest.approx(target, abs=1e-12)
        rep = gs_series(CriterionParams(beta=0.5, gamma=0.5, q=1.4))
        assert abs(rep.g_closed - target) < 1e-12
        assert abs(rep.g_partial - rep.g_closed) < 1e-10
        assert rep.g_tail_bound < 1e-10

    def test_modulus_tail_sum_offset(self):
        # G(m) = sum_{n>=m}: shifting m scales by 2^{-gamma m}
        g0 = modulus_tail_sum(0.4, 2.0, 0)
        g3 = modulus_tail_sum(0.4, 2.0, 3)
        assert g3 == pytest.approx(g0 * 2.0 ** (-0.4 * 3), rel=1e-12)

    def test_q_a_convergence_flag(self):
        rep = gs_series(CriterionParams(beta=0.5, gamma=0.2, q=1.4))
        assert rep.q_a.convergent  # 1 - 1.4*0.8 = -0.12 < 0
        rep2 = gs_series(CriterionParams(beta=0.5, gamma=0.4, q=1.2))
        assert not rep2.q_a.convergent  # 1 - 1.2*0.6 = 0.28 > 0

    def test_q_b_flags_both_sides(self):
        # exponent 1/beta - gamma (1 + 1/beta) = 2 - 3 gamma at beta = 0.5
        assert gs_series(CriterionParams(beta=0.5, gamma=0.4, q=1.4)).q_b.convergent
        assert not gs_series(CriterionParams(beta=0.5, gamma=0.7, q=1.4)).q_b.convergent

    def test_q_c_flag(self):
        # delta = 1/(1+beta) - gamma
        assert gs_series(CriterionParams(beta=0.5, gamma=0.2, q=1.4)).q_c.convergent
        assert not gs_series(CriterionParams(beta=0.5, gamma=0.8, q=1.4)).q_c.convergent

    def test_reference_trend(self):
        rep = gs_series(
            CriterionParams(beta=0.5, gamma=0.2, q=1.4, k_window=1.0, c_free=1.0),
            r_grid=(1.0, 10.0, 100.0, 1000.0),
        )
        assert rep.q_trend_decreasing
        assert rep.q_trend[-1] < 1e-3

    def test_flags_match_sign_conditions_on_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            beta = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(0.01, 0.95)
            q = rng.uniform(1.01, 1.0 + beta - 0.01)
            rep = gs_series(CriterionParams(beta=beta, gamma=gamma, q=q, n_max=32))
            assert rep.q_a.convergent == (1.0 - q * (1.0 - gamma) < 0)
            assert rep.q_b.convergent == (1.0 / beta - gamma * (1 + 1 / beta) > 0)
            assert rep.q_c.convergent == (1.0 / (1 + beta) - gamma > 0)

    def test_nmax_doubling_stability(self):
        p1 = CriterionParams(beta=0.5, gamma=0.2, q=1.4, n_max=32)
        p2 = CriterionParams(beta=0.5, gamma=0.2, q=1.4, n_max=64)
        r1, r2 = gs_series(p1), gs_series(p2)
        assert r1.q_b.certified and r2.q_b.certified
        assert abs(r1.q_b.value - r2.q_b.value) < 1e-8
        assert r1.q_c.certified and r2.q_c.certified
        assert abs(r1.q_c.value - r2.q_c.value) < 1e-8

    def test_inconclusive_flag_never_silent(self):
        # near-zero Q_B exponent with a tiny free constant cannot be
        # tail-certified at n_max = 16
        p = CriterionParams(
            beta=0.5, gamma=0.66665, q=1.49, c_free=1e-12, n_max=16
        )
        rep = gs_series(p)
        assert rep.q_b.convergent  # e_b = 2 - 3 gamma > 0, barely
        assert not rep.q_b.certified

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CriterionParams(beta=0.5, gamma=0.2, q=1.4, n_max=8)
        # the series are evaluated at r_grid[0], so the grid needs a first r
        params = CriterionParams(beta=0.5, gamma=0.2, q=1.4)
        for r_grid in ((1.0, -1.0), (), (float("nan"),)):
            with pytest.raises(ValueError, match="r_grid"):
                gs_series(params, r_grid=r_grid)


class TestHolderExponent:
    def test_linear_field(self):
        x = np.linspace(0.0, 1.0, 1025)
        fit = holder_exponent(x, (1, 128), dx=1.0 / 1024)
        assert abs(fit.exponent - 1.0) < 0.05

    def test_sqrt_cusp(self):
        x = np.linspace(0.0, 1.0, 1025)
        fit = holder_exponent(np.abs(x - 0.5) ** 0.5, (1, 128), dx=1.0 / 1024)
        assert abs(fit.exponent - 0.5) < 0.07

    def test_brownian_path(self):
        gen = RngStream(42, 0).gen
        n = 4096
        path = np.cumsum(gen.normal(0, math.sqrt(1.0 / n), n))
        fit = holder_exponent(path, (4, 256), dx=1.0 / n)
        assert abs(fit.exponent - 0.5) < 0.1

    def test_affine_invariance(self):
        gen = RngStream(43, 0).gen
        field = np.cumsum(gen.normal(0, 1, 512))
        f1 = holder_exponent(field, (1, 64))
        f2 = holder_exponent(3.7 * field - 11.0, (1, 64))
        assert abs(f1.exponent - f2.exponent) < 1e-12

    def test_constant_field_degenerate(self):
        with pytest.raises(ValueError, match="degenerate|oscillation"):
            holder_exponent(np.zeros(256), (1, 32))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            holder_exponent(np.arange(32.0), (1, 8))

    def test_ci_covers_truth_for_lipschitz(self):
        x = np.linspace(0.0, 1.0, 1025)
        fit = holder_exponent(x, (1, 128), dx=1.0 / 1024)
        assert fit.covers(1.0)


@pytest.fixture(scope="module")
def probe_recorders():
    # the probe's histograms over (-1.5, 1.5)^dim, and an empty d=1 window
    fns = {
        1: probe_functionals(1, [0.2, 0.1, 0.05], (-1.5, 1.5))
        + probe_functionals(1, [0.1], (50.0, 51.0)),
        2: probe_functionals(2, [0.2, 0.1, 0.05], ((-1.5, 1.5), (-1.5, 1.5))),
    }
    out = {}
    for dim in (1, 2):
        p = make_params(0.5, 4000, 0.25, dim=dim)
        out[dim] = simulate(dirac(0.0), p, fns[dim], RngStream(44, 0), keep_path=False)
    return out


class TestUnboundednessProbe:

    def test_d1_stabilizes_d2_grows(self, probe_recorders):
        win1 = (-1.5, 1.5)
        win2 = ((-1.5, 1.5), (-1.5, 1.5))
        t1 = unboundedness_probe(probe_recorders[1], [0.2, 0.1, 0.05], win1)
        t2 = unboundedness_probe(probe_recorders[2], [0.2, 0.1, 0.05], win2)
        r1 = t1[-1][1] / t1[0][1]
        r2 = t2[-1][1] / t2[0][1]
        assert r1 < 3.0  # continuous occupation density stabilizes
        assert r2 > r1  # the d=2 density keeps growing under refinement

    def test_empty_window_error(self, probe_recorders):
        with pytest.raises(ValueError):
            unboundedness_probe(probe_recorders[1], [0.1], (50.0, 51.0))

    def test_bad_resolution(self, probe_recorders):
        with pytest.raises(UsageError):  # a width that was not registered
            unboundedness_probe(probe_recorders[1], [0.3], (-1.5, 1.5))


# every reader of a histogram's bin width, called at a given width; the probe
# readers get the probe_recorders paths, which hold the width 0.1
_BIN_WIDTH_READERS = {
    "histogram_edges": lambda h, recs: histogram_edges(-1.0, 1.0, h),
    "histogram_functional": lambda h, recs: histogram_functional(-1.0, 1.0, h),
    "probe_functionals[d=1]": lambda h, recs: probe_functionals(1, [h], (-1.0, 1.0)),
    "probe_functionals[d=2]": lambda h, recs: probe_functionals(
        2, [h], ((-1.0, 1.0), (-1.0, 1.0))),
    "unboundedness_probe": lambda h, recs: unboundedness_probe(recs[1], [h], (-1.5, 1.5)),
}


class TestBinWidthRule:
    @pytest.mark.parametrize("reader", _BIN_WIDTH_READERS)
    def test_every_reader_states_the_rule(self, reader, probe_recorders):
        # histogram_functional divided by zero at width 0 and built a
        # histogram of no bins at a negative width
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="bin width must be finite and > 0"):
                _BIN_WIDTH_READERS[reader](h, probe_recorders)
        _BIN_WIDTH_READERS[reader](0.1, probe_recorders)  # a valid width is read
