"""Offspring law, stable increments, and stream reproducibility."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import ks_1samp, ks_2samp, levy_stable

from sbmlab import rng
from sbmlab.config import ExperimentConfig
from sbmlab.continuity import CriterionParams, criterion_violations
from sbmlab.errors import raise_violations
from sbmlab.loglaplace import GridSpec, solve_mild, solve_violations
from sbmlab.particles import ModelParams, make_params, model_violations
from sbmlab.rng import (
    OffspringLaw,
    RngStream,
    StableParams,
    beta_violations,
    make_offspring_law,
    offspring_pmf,
    sample_offspring,
    sample_stable_increment,
)

BETAS = [0.1, 0.3, 0.5, 0.7, 0.9]


def sympy_pmf(beta, k_max):
    """Independent symbolic oracle: series coefficients of the generating
    function s + (1-s)^(1+beta)/(1+beta)."""
    import sympy as sp

    s = sp.Symbol("s")
    b = sp.Rational(beta).limit_denominator(10**6)
    f = s + (1 - s) ** (1 + b) / (1 + b)
    series = sp.series(f, s, 0, k_max + 1).removeO()
    poly = sp.Poly(series, s)
    return [float(poly.coeff_monomial(s**k)) for k in range(k_max + 1)]


class TestOffspringPmf:
    def test_frozen_examples(self):
        assert offspring_pmf(0.5, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert offspring_pmf(0.5, 1) == 0.0
        assert offspring_pmf(0.5, 2) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.3, 0.5])
    def test_against_symbolic_series(self, beta):
        oracle = sympy_pmf(beta, 8)
        for k in range(9):
            assert offspring_pmf(beta, k) == pytest.approx(oracle[k], abs=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_mass_and_mean(self, beta):
        law = make_offspring_law(beta)
        assert abs(law.total_mass() - 1.0) < 1e-12
        assert abs(law.mean() - 1.0) < 1e-10

    @pytest.mark.parametrize("beta", BETAS)
    def test_nonnegative(self, beta):
        law = make_offspring_law(beta)
        assert (law.pmf_table >= 0).all()

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            offspring_pmf(bad, 2)

    @given(beta=st.floats(0.05, 0.95), k=st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_matches_gamma_form(self, beta, k):
        # table recurrence vs the Gamma-ratio form
        law = make_offspring_law(beta, k_table=80)
        assert law.pmf_table[k] == pytest.approx(offspring_pmf(beta, k), rel=1e-10)

    def test_survival_consistency(self):
        # P(K > k) from the closed form equals 1 - cdf of the table
        law = make_offspring_law(0.5, k_table=2000)
        for k in [1, 5, 50, 500, 2000]:
            assert float(law.survival(k)) == pytest.approx(
                1.0 - law.cdf_table[k], abs=1e-12
            )


def _gammaln_survival(beta, k):
    """P(K > k) as it was computed with scipy's log-gamma."""
    k = np.asarray(k, dtype=np.float64)
    return np.exp(
        math.log(beta / (1.0 + beta)) + gammaln(k - beta) - gammaln(1.0 - beta) - gammaln(k + 1.0)
    )


def _lgamma_rtol(*args):
    """Relative tolerance between exp of a sum of log-gamma terms and the same
    with scipy's log-gamma: 1e-13, plus four units in the last place of each
    term, since each implementation rounds its result to about one unit.
    Beyond k of about 20 the units dominate: about 1e-11 at k = 1e4."""
    return 1e-13 + 4 * np.finfo(float).eps * sum(np.abs(gammaln(a)) for a in args)


def _reference_survival(beta, k):
    """P(K > k) to 40 digits, with k - beta formed exactly: a float k - beta
    alone is off by about 1e-8 in log Gamma at k = 1e7."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        return (b * mpmath.gamma(mpmath.mpf(int(k)) - b)
                / ((1 + b) * mpmath.gamma(1 - b) * mpmath.factorial(int(k))))


def _reference_pmf(beta, k):
    """P(K = k) for k >= 2 to 40 digits, k - 1 - beta formed exactly."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        return (b * mpmath.gamma(mpmath.mpf(int(k)) - 1 - b)
                / (mpmath.gamma(1 - b) * mpmath.factorial(int(k))))


def _rel_err(got, want):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(float(got)) / want - 1))


class TestLogGamma:
    """The law's Gamma ratios against a 40-digit reference, and against the
    difference of scipy's log-gammas within that difference's rounding."""

    KS = np.unique(np.round(np.logspace(np.log10(2.0), 7.0, 300)))

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_survival_matches_40_digits(self, beta):
        # T_k from the series of log(Gamma(k - beta)/Gamma(k + 1)); a
        # difference of log-gammas is off by 1e-11 at k = 1e4 and 1e-8 at 1e7
        got = rng._survival(beta, self.KS)
        errs = [_rel_err(g, _reference_survival(beta, k)) for g, k in zip(got, self.KS)]
        assert max(errs) <= 1e-13
        law = make_offspring_law(beta)
        kt = law.k_table
        with mpmath.workdps(40):
            tail_mass = _reference_survival(beta, kt)
            # sum_{k>K} k p_k = (K+1) T_K + sum_{k>K} T_k, the survival tail
            # sum being Gamma(K+1-beta)/((1+beta) Gamma(1-beta) K!)
            b = mpmath.mpf(beta)
            tail_sum = (mpmath.gamma(kt + 1 - b)
                        / ((1 + b) * mpmath.gamma(1 - b) * mpmath.factorial(kt)))
            tail_mean = (kt + 1) * tail_mass + tail_sum
            table_mean = float((np.arange(kt + 1) * law.pmf_table).sum())
            assert _rel_err(law.tail_mass, tail_mass) <= 1e-13
            assert abs(law.mean() - float(table_mean + tail_mean)) <= (
                1e-13 * float(tail_mean) + 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_pmf_matches_40_digits(self, beta):
        # p_k from the same series, over k; a difference of log-gammas is off
        # by up to 3e-11 at k = 1e4 and 4e-8 at 1e7
        errs = [_rel_err(offspring_pmf(beta, int(k)), _reference_pmf(beta, k)) for k in self.KS]
        assert max(errs) <= 1e-13

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_matches_gammaln(self, beta):
        # a difference of scipy's log-gammas is off by about their units in
        # the last place; T_k, the pmf and the mean lie within that of it
        ks = self.KS
        want = _gammaln_survival(beta, ks)
        got = rng._survival(beta, ks)
        assert (np.abs(got / want - 1.0) <= _lgamma_rtol(ks - beta, ks + 1.0, 1.0 - beta)).all()
        for k in ks:
            want_p = math.exp(
                math.log(beta) + gammaln(k - 1 - beta) - gammaln(1.0 - beta) - gammaln(k + 1.0)
            )
            rtol = _lgamma_rtol(k - 1 - beta, k + 1.0, 1.0 - beta)
            assert abs(offspring_pmf(beta, int(k)) / want_p - 1.0) <= rtol
        law = make_offspring_law(beta)
        kt = law.k_table
        rtol = _lgamma_rtol(kt - beta, kt + 1.0, 1.0 - beta)
        tail_mass = float(_gammaln_survival(beta, kt))
        assert abs(law.tail_mass / tail_mass - 1.0) <= rtol
        # the mean's tail terms, (K+1) T_K and the survival tail sum, each
        # carry the tolerance of their Gamma ratio
        tail_sum = math.exp(
            gammaln(kt + 1.0 - beta) - gammaln(1.0 - beta) - gammaln(kt + 1.0)
        ) / (1.0 + beta)
        table_mean = float((np.arange(kt + 1) * law.pmf_table).sum())
        want_mean = table_mean + (kt + 1) * tail_mass + tail_sum
        slack = rtol * ((kt + 1) * tail_mass + tail_sum) + 4 * np.finfo(float).eps
        assert abs(law.mean() - want_mean) <= slack

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_draws_match_gammaln_survival(self, beta, monkeypatch):
        # a table of 20 sends about 100 (beta 0.8) to 700 (beta 0.3) of the
        # 200 000 draws through the tail inversion, each of which evaluates
        # the survival tens of times
        law = make_offspring_law(beta, k_table=20)
        got = sample_offspring(RngStream(17, 0), law, 200_000)
        monkeypatch.setattr(rng, "_survival", _gammaln_survival)
        want = sample_offspring(RngStream(17, 0), law, 200_000)
        assert (want > 20).sum() > 50
        np.testing.assert_array_equal(got, want)


class TestSampleOffspring:
    def test_zero_class_frequency(self):
        law = make_offspring_law(0.5)
        stream = RngStream(1, 0)
        n = 10**6
        draws = sample_offspring(stream, law, n)
        p0 = 2.0 / 3.0
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(np.mean(draws == 0) - p0) <= 3 * se

    def test_empirical_mean_critical(self):
        law = make_offspring_law(0.5)
        stream = RngStream(2, 0)
        draws = sample_offspring(stream, law, 10**6).astype(float)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3 * se

    def test_empirical_survival_matches_exact(self):
        law = make_offspring_law(0.5)
        stream = RngStream(3, 0)
        n = 2 * 10**6
        draws = sample_offspring(stream, law, n)
        for k in [10, 100, 1000]:
            t_k = float(law.survival(k))
            p_hat = np.mean(draws > k)
            se = math.sqrt(t_k * (1 - t_k) / n)
            assert abs(p_hat - t_k) <= 4 * se

    def test_tail_samples_exceed_table(self):
        # force the tail path directly and check inversion monotonicity
        from sbmlab.rng import _sample_tail

        law = make_offspring_law(0.5, k_table=100)
        vs = np.array([law.tail_mass * f for f in (0.9, 0.5, 0.1, 0.01)])
        ks = _sample_tail(law, vs)
        assert (ks > 100).all()
        assert (np.diff(ks) > 0).all()  # smaller v -> deeper tail

    def test_scalar_draw(self):
        law = make_offspring_law(0.5)
        k = sample_offspring(RngStream(4, 0), law)
        assert isinstance(k, int) and k >= 0


class TestStableIncrements:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_laplace_transform(self, theta, t):
        stream = RngStream(5, 0)
        params = StableParams(alpha=1.5)
        inc = sample_stable_increment(stream, params, t, size=10**5)
        vals = np.exp(-theta * inc)
        target = math.exp(t * theta**1.5)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se

    def test_self_similarity(self):
        stream = RngStream(6, 0)
        params = StableParams(alpha=1.5)
        c = 4.0
        a = sample_stable_increment(stream, params, c * 0.25, size=20000)
        b = c ** (1 / 1.5) * sample_stable_increment(stream, params, 0.25, size=20000)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_small_duration_limit(self):
        stream = RngStream(7, 0)
        params = StableParams(alpha=1.5)
        inc = sample_stable_increment(stream, params, 1e-4, size=10**5)
        vals = np.exp(-1.0 * inc)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3 * se + 2e-4

    def test_distribution_vs_scipy(self):
        alpha = 1.5
        stream = RngStream(8, 0)
        params = StableParams(alpha=alpha)
        x = sample_stable_increment(stream, params, 1.0, size=3000)
        sigma = abs(math.cos(math.pi * alpha / 2)) ** (1 / alpha)
        assert ks_1samp(x, levy_stable(alpha, 1.0, scale=sigma).cdf).pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            StableParams(alpha=2.0)
        with pytest.raises(ValueError):
            StableParams(alpha=1.0)
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, scale=-1.0)
        with pytest.raises(ValueError):
            sample_stable_increment(RngStream(0, 0), StableParams(alpha=1.5), 0.0)


def make_streams(seed: int, count: int) -> list[RngStream]:
    """The independent streams (seed, 0), ..., (seed, count - 1)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [RngStream(seed, i) for i in range(count)]


class TestStreams:
    def test_reproducible(self):
        for s1, s2 in zip(make_streams(42, 2), make_streams(42, 2)):
            assert np.array_equal(s1.gen.random(1000), s2.gen.random(1000))

    def test_cross_correlation(self):
        s0, s1 = make_streams(42, 2)
        a = s0.gen.random(10**5)
        b = s1.gen.random(10**5)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_seed_sensitivity(self):
        a = make_streams(42, 1)[0].gen.random(100)
        b = make_streams(43, 1)[0].gen.random(100)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_streams(1, 0)
        with pytest.raises(ValueError):
            RngStream(1, -1)


# every reader of beta, called at a given beta: the rule's owner, the Slack
# law, the model, the criterion, the solver and the config of a kind that
# reads both the model and the solver
_BETA_READERS = {
    "beta_violations": lambda beta: raise_violations(beta_violations(beta)),
    "offspring_pmf": lambda beta: offspring_pmf(beta, 2),
    "make_offspring_law": lambda beta: make_offspring_law(beta, k_table=16),
    "model_violations": lambda beta: raise_violations(model_violations(beta, 10, 1e-3, 0.1)),
    "ModelParams": lambda beta: ModelParams(beta, 10, 1e-3, 0.1),
    "make_params": lambda beta: make_params(beta, 10, 0.1),
    "criterion_violations": lambda beta: raise_violations(criterion_violations(beta, 1.0, 64)),
    "CriterionParams": lambda beta: CriterionParams(beta, 0.2, 1.4),
    "solve_violations": lambda beta: raise_violations(solve_violations(1.0, beta)),
    "solve_mild": lambda beta: solve_mild(np.ones_like, 0.1, beta, GridSpec(nx=51, nt=10)),
    "validate[duality]": lambda beta: raise_violations(
        ExperimentConfig(kind="duality", beta=beta, t_end=0.1).validate()),
}


class TestBetaRule:
    @pytest.mark.parametrize("reader", _BETA_READERS)
    def test_every_reader_states_the_rule(self, reader):
        # make_params fitted its step before the rule was read, and raised
        # "cannot convert float NaN to integer" at beta = nan
        for beta in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match=rf"beta must lie in \(0, 1\), got {beta}"):
                _BETA_READERS[reader](beta)
        _BETA_READERS[reader](0.5)  # a valid beta is read
