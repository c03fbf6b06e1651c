"""Reproducible random streams and heavy-tailed samplers.

Provides counter-based (Philox) random streams keyed by (seed, stream_index),
the critical Slack offspring law whose generating function is
f(s) = s + (1-s)^(1+beta)/(1+beta), and spectrally positive (1+beta)-stable
increments normalized so that E[exp(-theta * L_t)] = exp(t * theta^(1+beta)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import raise_violations

__all__ = [
    "RngStream",
    "beta_violations",
    "OffspringLaw",
    "make_offspring_law",
    "offspring_pmf",
    "sample_offspring",
    "StableParams",
    "sample_stable_increment",
]

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """A reproducible random stream identified by (seed, stream_index).

    Streams with the same key produce identical sequences; distinct
    stream_index values give statistically independent streams.  A stream is
    single-owner: it may be moved between threads but never shared.
    """

    seed: int
    stream_index: int
    gen: Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError(f"stream_index must be >= 0, got {self.stream_index}")
        key = (self.seed & _MASK64) | ((self.stream_index & _MASK64) << 64)
        self.gen = Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# Slack offspring law: f(s) = s + (1-s)^(1+beta) / (1+beta)
#
# pmf:      p_0 = 1/(1+beta), p_1 = 0,
#           p_k = beta * Gamma(k-1-beta) / (Gamma(1-beta) * k!)      (k >= 2)
# survival: T_k := P(K > k) = beta * Gamma(k-beta) / ((1+beta) * Gamma(1-beta) * k!)
#           for k >= 1, T_0 = beta/(1+beta); T_k ~ const * k^(-1-beta).
# Both follow from expanding the generating function binomially.
# ---------------------------------------------------------------------------


def beta_violations(beta: float) -> list[str]:
    """The Slack law's rule on beta, and every model's: 0 < beta < 1; empty if kept."""
    return [] if 0.0 < beta < 1.0 else [f"beta must lie in (0, 1), got {beta}"]


def offspring_pmf(beta: float, k: int) -> float:
    """Probability of k offspring under the critical Slack law."""
    raise_violations(beta_violations(beta))
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1.0 / (1.0 + beta)
    if k == 1:
        return 0.0
    # Gamma(k-1-beta)/k! = Gamma((k-1)-beta)/Gamma(k) / k, the ratio from its series
    log_p = (
        math.log(beta)
        - math.lgamma(1.0 - beta)
        + float(_log_gamma_ratio(beta, k - 1))
        - math.log(k)
    )
    return float(math.exp(log_p))


# math.lgamma elementwise: a float for a 0-d input, else an object array
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
# k from which log(Gamma(k - beta) / Gamma(k + 1)) is summed as a series: four
# Stirling terms leave an error below 1/(1188 z^9) < 3e-15 at z = k - beta >= 19
_SERIES_FROM = 20


def _stirling_correction(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), to four terms."""
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def _log_gamma_ratio(beta: float, k) -> np.ndarray:
    """log(Gamma(k - beta) / Gamma(k + 1)) for k >= 1 (vectorized).

    From k = _SERIES_FROM on, Stirling's series for both log-gammas, with
    the large terms cancelled by hand:

        -(1 + beta) log k + (k - beta - 1/2) log1p(-beta/k)
        - (k + 1/2) log1p(1/k) + (1 + beta) + C(k - beta) - C(k + 1),

    C the `_stirling_correction`.  Every term is O(log k) or smaller, so the
    result is accurate to a few units of roundoff at any k, where the
    difference of two log-gammas of about k log k loses that many units of
    theirs.  Below, the difference of `math.lgamma` values, which are small.
    """
    k = np.asarray(k, dtype=np.float64)
    near = np.minimum(k, _SERIES_FROM)  # the series branch is discarded there
    exact = np.asarray(_lgamma(near - beta) - _lgamma(near + 1.0), dtype=np.float64)
    series = (
        -(1.0 + beta) * np.log(k)
        + (k - beta - 0.5) * np.log1p(-beta / k)
        - (k + 0.5) * np.log1p(1.0 / k)
        + (1.0 + beta)
        + _stirling_correction(k - beta)
        - _stirling_correction(k + 1.0)
    )
    return np.where(k < _SERIES_FROM, exact, series)


def _survival(beta: float, k) -> np.ndarray:
    """Exact P(K > k) for integer k >= 1 (vectorized)."""
    log_t = math.log(beta / (1.0 + beta)) - math.lgamma(1.0 - beta) + _log_gamma_ratio(beta, k)
    return np.exp(log_t)


@dataclass(frozen=True)
class OffspringLaw:
    """Tabulated Slack offspring law with an exact analytic tail.

    The pmf is tabulated up to k_table; beyond that, sampling inverts the
    exact survival function T_k (a Gamma ratio, asymptotically
    ~ tail_constant * k^(-1-beta), so the k^(-2-beta) pmf tail is preserved
    exactly in distribution).
    """

    beta: float
    k_table: int
    pmf_table: np.ndarray
    cdf_table: np.ndarray
    tail_mass: float  # P(K > k_table), exact

    @property
    def tail_constant(self) -> float:
        # survival T_k ~ tail_constant * k^(-1-beta)
        return self.beta / ((1.0 + self.beta) * math.gamma(1.0 - self.beta))

    def survival(self, k) -> np.ndarray:
        """Exact P(K > k) for k >= 1."""
        return _survival(self.beta, k)

    def total_mass(self) -> float:
        """Table mass plus analytic tail mass (should be 1)."""
        return float(self.pmf_table.sum() + self.tail_mass)

    def mean(self) -> float:
        """Table mean plus analytic tail mean (should be 1, criticality)."""
        k = np.arange(self.k_table + 1)
        table_mean = float((k * self.pmf_table).sum())
        # sum_{k>K} k p_k = (K+1) T_K + sum_{k>K} T_k, and the survival tail
        # sum has the closed form Gamma(K+1-beta)/((1+beta) Gamma(1-beta) K!),
        # which is (K - beta)/beta T_K
        kt, beta = self.k_table, self.beta
        return table_mean + ((kt + 1) + (kt - beta) / beta) * self.tail_mass


def make_offspring_law(beta: float, k_table: int = 10_000) -> OffspringLaw:
    raise_violations(beta_violations(beta))
    if k_table < 2:
        raise ValueError(f"k_table must be >= 2, got {k_table}")
    p = np.zeros(k_table + 1)
    p[0] = 1.0 / (1.0 + beta)
    p[2] = beta / 2.0
    for k in range(2, k_table):
        p[k + 1] = p[k] * (k - 1.0 - beta) / (k + 1.0)
    cdf = np.cumsum(p)
    tail_mass = float(_survival(beta, k_table))
    return OffspringLaw(
        beta=beta, k_table=k_table, pmf_table=p, cdf_table=cdf, tail_mass=tail_mass
    )


def _sample_tail(law: OffspringLaw, v: np.ndarray) -> np.ndarray:
    """Invert the exact survival beyond the table: K = min {k : T_k < v}."""
    out = np.empty(v.shape, dtype=np.int64)
    kt = law.k_table
    for i, vi in enumerate(v.ravel()):
        # bracket [lo, hi] with T_lo >= v > T_hi, starting from the power-law guess
        lo = kt
        guess = kt * (law.tail_mass / vi) ** (1.0 / (1.0 + law.beta))
        hi = max(kt + 1, int(2 * guess))
        while float(law.survival(hi)) >= vi:
            lo = hi
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if float(law.survival(mid)) < vi:
                hi = mid
            else:
                lo = mid
        out.ravel()[i] = hi
    return out


def sample_offspring(stream: RngStream, law: OffspringLaw, size: int | None = None):
    """Draw offspring counts; scalar when size is None, else an int64 array."""
    scalar = size is None
    n = 1 if scalar else int(size)
    u = stream.gen.random(n)
    k = np.searchsorted(law.cdf_table, u, side="right").astype(np.int64)
    in_tail = k > law.k_table
    if in_tail.any():
        v = 1.0 - u[in_tail]
        k[in_tail] = _sample_tail(law, v)
    return int(k[0]) if scalar else k


# ---------------------------------------------------------------------------
# Spectrally positive (1+beta)-stable increments via the one-sided
# Chambers-Mallows-Stuck construction, normalized so that
# E[exp(-theta * increment(duration))] = exp(duration * scale * theta^alpha).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableParams:
    """Parameters of the driving spectrally positive stable process; alpha =
    1 + beta in (1, 2)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


def sample_stable_increment(
    stream: RngStream, params: StableParams, duration: float, size: int | None = None
):
    """One increment of the stable process over the given duration.

    The totally skewed CMS variate is rescaled so the Laplace exponent is
    exactly Psi(theta) = scale * theta^alpha; the sigma normalization
    |cos(pi alpha / 2)|^(1/alpha) cancels the CMS prefactor.
    """
    if duration <= 0.0:
        raise ValueError(f"duration must be > 0, got {duration}")
    alpha = params.alpha
    scalar = size is None
    n = 1 if scalar else int(size)
    u = stream.gen.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    w = stream.gen.exponential(1.0, n)
    theta0 = math.atan(math.tan(0.5 * math.pi * alpha)) / alpha
    x = (
        np.sin(alpha * (u + theta0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + theta0)) / w) ** ((1.0 - alpha) / alpha)
    )
    inc = (params.scale * duration) ** (1.0 / alpha) * x
    return float(inc[0]) if scalar else inc
