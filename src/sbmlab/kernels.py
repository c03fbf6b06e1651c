"""Deterministic analytic kernels: heat kernel, the resolvent Green's
function G_lambda in numeric and closed form, its a.e. derivative kernel
g_lambda, and the rules of lambda and of a Gaussian smoothing bandwidth.

Closed forms used throughout:

    G_lambda(x) = (2 lambda)^(-1/2) * exp(-sqrt(2 lambda) |x|)
    g_lambda(x) = -sgn(x) * exp(-sqrt(2 lambda) |x|),   sgn(0) = 0

Note on derivative orientation: for the map x -> <mu, G_lambda(. - x)> the
chain rule gives d/dx G_lambda(y - x) = g_lambda(x - y), i.e. the derivative
kernel is evaluated with arguments reversed relative to G; the odd symmetry
of g makes this a sign flip that matters everywhere derivatives appear.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, raise_violations

__all__ = [
    "heat_kernel",
    "green_numeric",
    "green_closed",
    "g_lambda",
    "lambda_violations",
    "resolvent_rate",
    "bandwidth_violations",
]


def heat_kernel(s: float, x, dim: int = 1):
    """Gaussian transition density at time s; dim=2 uses the product form
    with x of shape (..., 2)."""
    if s <= 0:
        raise ValueError(f"heat kernel time must be > 0, got {s}")
    if dim == 1:
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)
    if dim == 2:
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return np.exp(-r2 / (2.0 * s)) / (2.0 * math.pi * s)
    raise ValueError(f"dim must be 1 or 2, got {dim}")


def lambda_violations(lam: float, name: str = "lambda") -> list[str]:
    """The rule of every resolvent parameter: finite and > 0."""
    return [] if 0 < lam < math.inf else [f"{name} must be finite and > 0, got {lam}"]


def resolvent_rate(lam: float) -> float:
    """The kernels' rate a = sqrt(2 lambda); ValueError unless lambda keeps
    `lambda_violations`' rule."""
    raise_violations(lambda_violations(lam))
    return math.sqrt(2.0 * lam)


def bandwidth_violations(bandwidth: float) -> list[str]:
    """The rule of a Gaussian smoothing kernel's width (the bandwidth of
    `tanaka.estimate_local_time`): finite and > 0."""
    return [] if 0 < bandwidth < math.inf else [
        f"bandwidth must be finite and > 0, got {bandwidth}"]


def green_numeric(lam: float, x: float) -> float:
    """Laplace-time integral int_0^inf exp(-lam s) p_s(x) ds by adaptive
    quadrature in log time (the s^(-1/2) endpoint singularity becomes a
    smooth exponential tail after the substitution s = e^u)."""
    from scipy.integrate import quad  # slow to import; only this oracle needs it

    resolvent_rate(lam)  # the rule on lambda
    x = float(x)

    def integrand(u: float) -> float:
        s = math.exp(u)
        return math.exp(-lam * s - x * x / (2.0 * s) + 0.5 * u) / math.sqrt(2.0 * math.pi)

    u_hi = math.log(746.0 / lam)
    u_lo = -70.0 if x == 0.0 else max(-70.0, math.log(x * x / 1490.0))
    if u_lo >= u_hi:
        return 0.0
    result = quad(integrand, u_lo, u_hi, epsabs=1e-13, epsrel=1e-13, limit=400, full_output=1)
    if len(result) > 3:
        raise NumericsError(
            f"green_numeric quadrature trouble at lambda={lam}, x={x}: {result[3]}"
        )
    value, abserr = result[0], result[1]
    if abserr > 1e-10:
        raise NumericsError(
            f"green_numeric did not reach target accuracy at lambda={lam}, x={x}: "
            f"abserr={abserr:.3e}"
        )
    return float(value)


def green_closed(lam: float, x):
    """G_lambda in closed form; Lipschitz with constant 1."""
    a = resolvent_rate(lam)
    x = np.asarray(x, dtype=float)
    out = np.exp(-a * np.abs(x)) / a
    return float(out) if out.ndim == 0 else out


def g_lambda(lam: float, x):
    """Derivative kernel of G_lambda; odd, bounded by 1, zero at 0."""
    a = resolvent_rate(lam)
    x = np.asarray(x, dtype=float)
    out = -np.sign(x) * np.exp(-a * np.abs(x))
    return float(out) if out.ndim == 0 else out
