"""Deterministic mild-equation solver for the log-Laplace equation.

Solves, on a space-time grid,

    V_t = P_t phi - int_0^t P_s (V_{t-s}^(1+beta)) ds,

with the Gaussian semigroup P_s realized as a row-normalized, truncated
(8 sqrt(s)) convolution matrix on the grid.  Row normalization makes the
discrete semigroup conservative (P_s 1 = 1 exactly), so spatially constant
data reduces the scheme to the exact mass ODE v' = -v^(1+beta).

The time integral uses left rectangles on the solver time grid with substep
refinement of the first interval, where the heat kernel concentrates.  Row
i (t_i = i delta) reads w = max(V, 0)^(1+beta) at rows 1..i-1 through the
rectangles P_{k delta} w[i-k], and its own row only through the first
interval, whose substeps interpolate linearly between w[i] and w[i-1].  The
scheme is lower-triangular in the time rows, a discrete Volterra equation,
so it is solved by forward substitution (Brunner, Collocation Methods for
Volterra Integral and Related Functional Differential Equations, CUP 2004):
row by row in time, each row by fixed-point iteration in its own w[i],
started from row i-1, once the rows before it are final.

On a uniform grid that matrix, `heat_matrix(s)`, factors as D_s^-1 K_s W:
K_s is the Toeplitz matrix of the truncated kernel g_s(m h), W holds the
trapezoid weights and D_s the row sums r_s = K_s w.  `HeatSemigroup` applies
it without forming it: one real FFT convolution of g_s with W u, zero-padded
to at least 2 nx - 1 points so that no term wraps around, divided by r_s,
which is the same convolution of g_s with w.  That is the same
discretization, with the same truncation and normalization; only the
rounding of the sums differs (about 1e-15 on the test grids).  Each row's
spectrum of W w is computed once, when the row is final, and row i applies
P_{k delta} to the stored spectra of rows i-1..1, a block of rows at a time
(`HeatSemigroup.apply_sum`); its own iterations transform w[i] once each and
form the substep inputs in the spectral domain.  The cost is
O(nt^2 nx log nx) for the whole solve and the memory O(nt nx), in the
arrays the solve keeps; its transients span one block of rows.

The harness `duality` kind compares the Monte Carlo Laplace functional
E[exp(-<X_t, phi>)] of the particle system against exp(-<X_0, V_t>).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy import fft

from .errors import NumericsError, raise_violations
from .rng import beta_violations

__all__ = [
    "GridSpec",
    "HeatSemigroup",
    "LogLaplaceSolution",
    "solve_mild",
    "grid_violations",
    "heat_matrix",
    "indicator_violations",
    "smoothed_indicator",
    "solve_violations",
]


def grid_violations(
    x_min: float, x_max: float, nx: int, nt: int, substeps: int = 1, prefix: str = ""
) -> list[str]:
    """Every rule of `GridSpec` the grid breaks, naming each field with the
    given prefix; empty if the grid is valid."""
    errs = []
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        errs.append(f"need finite {prefix}x_min < {prefix}x_max, got {x_min}, {x_max}")
    if nx < 8:
        errs.append(f"{prefix}nx must be >= 8, got {nx}")
    if nt < 1:
        errs.append(f"{prefix}nt must be >= 1, got {nt}")
    if substeps < 1:
        errs.append(f"{prefix}substeps must be >= 1, got {substeps}")
    return errs


@dataclass(frozen=True)
class GridSpec:
    x_min: float = -10.0
    x_max: float = 10.0
    nx: int = 401
    nt: int = 50
    substeps: int = 4  # refinement of the first time interval

    def __post_init__(self):
        raise_violations(grid_violations(self.x_min, self.x_max, self.nx, self.nt, self.substeps))

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def _trapezoid_weights(x_grid: np.ndarray) -> np.ndarray:
    w = np.full(x_grid.size, x_grid[1] - x_grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def heat_matrix(s: float, x_grid: np.ndarray) -> np.ndarray:
    """Row-normalized Gaussian convolution matrix with kernel truncation at
    8 sqrt(s); the identity at s = 0.  The dense reference for
    `HeatSemigroup`, which the solver uses."""
    n = x_grid.size
    if s == 0.0:
        return np.eye(n)
    d = x_grid[:, None] - x_grid[None, :]
    k = np.exp(-d * d / (2.0 * s))
    k[np.abs(d) > 8.0 * math.sqrt(s)] = 0.0
    m = k * _trapezoid_weights(x_grid)[None, :]
    m /= m.sum(axis=1, keepdims=True)
    return m


# rows of one block of FFT convolutions: the kernel spectra and row sums are
# built, and P_t phi and each row's rectangle sum formed, this many time
# levels at a time, so that no transient spans every level; set by a sweep
# (docs/decisions.md, "solve_mild in row blocks")
_BLOCK_ROWS = 16


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c >= n >= 1: the real-FFT
    length that `scipy.fft.next_fast_len(n, real=True)` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or above
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class HeatSemigroup:
    """`heat_matrix(s, x_grid)` for each of the given times s > 0, applied as
    FFT convolutions and never formed: row k applies the matrix at times[k].

    x_grid must be uniform.  A product is `apply(k, transform(u))`; the
    transform of u can be shared by every time, and u may hold one function
    per row of a 2-d array.

    It keeps two real arrays, one row per time: the kernel spectra
    (n_fft // 2 + 1 wide) and the row sums (nx wide).  They are built
    `_BLOCK_ROWS` times at a time, and `apply_sum` forms its products a block
    at a time too, so that one block holds the transients: for each of its
    rows, a kernel or inverse transform of n_fft floats and a complex
    spectrum of n_fft // 2 + 1 values.
    """

    def __init__(self, times, x_grid: np.ndarray):
        times = np.asarray(times, dtype=float)
        if (times <= 0).any():
            raise ValueError("times must be > 0")
        self.nx = x_grid.size
        self.n_fft = n_fft = _next_fast_len(2 * self.nx - 1)  # no wrap-around
        self.weights = _trapezoid_weights(x_grid)
        # circular lags; the first nx outputs read only those below nx
        lag = np.arange(n_fft)
        d = np.minimum(lag, n_fft - lag) * (x_grid[1] - x_grid[0])
        weights_hat = fft.rfft(self.weights, n=n_fft)
        # the kernel is even, so its spectrum is real; both arrays are filled
        # a block of rows at a time, so that no kernel, complex spectrum or
        # full-length inverse transform spans every time
        self.spectra = np.empty((times.size, n_fft // 2 + 1))
        self.row_sums = np.empty((times.size, self.nx))
        for lo in range(0, times.size, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            s = times[rows, None]
            kernel = np.exp(-d * d / (2.0 * s))
            kernel[d > 8.0 * np.sqrt(s)] = 0.0
            self.spectra[rows] = fft.rfft(kernel, axis=-1).real
            self.row_sums[rows] = self._convolve(self.spectra[rows], weights_hat)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Spectrum of W u along the last axis."""
        return fft.rfft(self.weights * u, n=self.n_fft, axis=-1)

    def apply(self, k, u_hat: np.ndarray) -> np.ndarray:
        """heat_matrix(times[k]) u from u_hat = transform(u); k may be a
        slice, one time per row of u_hat."""
        return self._convolve(self.spectra[k], u_hat) / self.row_sums[k]

    def apply_sum(self, u_hat: np.ndarray) -> np.ndarray:
        """The sum over k of apply(k, u_hat[k]), one time per row of u_hat:
        bit for bit apply(slice(0, len(u_hat)), u_hat).sum(axis=0), formed a
        block of rows at a time.  numpy sums axis 0 row after row, so each
        block's sum takes the running total in as its first row."""
        n, total = len(u_hat), np.zeros(self.nx)
        for lo in range(0, n, _BLOCK_ROWS):
            rows = slice(lo, min(lo + _BLOCK_ROWS, n))
            block = self.apply(rows, u_hat[rows])
            if lo:
                block = np.concatenate((total[None], block))
            total = block.sum(axis=0)
        return total

    def _convolve(self, spectra: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
        return fft.irfft(spectra * u_hat, n=self.n_fft, axis=-1)[..., : self.nx]


@dataclass
class LogLaplaceSolution:
    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (nt+1, nx)
    residual: float  # largest final sup-change of a row's fixed-point iteration
    iterations: int  # largest number of fixed-point iterations of a row
    beta: float

    def interpolator(self) -> Callable[[np.ndarray], np.ndarray]:
        """V(t_end, .), interpolated linearly on the space grid."""
        return lambda y: np.interp(y, self.x_grid, self.values[-1])


def _phi_on_grid(phi, x_grid: np.ndarray) -> np.ndarray:
    vals = np.asarray(phi(x_grid), dtype=float)
    if vals.shape != x_grid.shape:
        raise ValueError("phi must evaluate to one value per grid point")
    if not np.all(np.isfinite(vals)) or (vals < 0).any():
        raise ValueError("phi must be nonnegative and finite on the grid")
    return vals


def solve_violations(t_end: float, beta: float, tol: float = 1e-9) -> list[str]:
    """Every rule of `solve_mild` that the horizon, beta and tol break, each
    named as its argument; empty if they are valid."""
    errs = beta_violations(beta)
    if not 0.0 < t_end < math.inf:
        errs.append(f"t_end must be finite and > 0, got {t_end}")
    if not tol > 0:
        errs.append(f"tol must be > 0, got {tol}")
    return errs


def solve_mild(
    phi,
    t_end: float,
    beta: float,
    grids: GridSpec = GridSpec(),
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> LogLaplaceSolution:
    """Forward substitution over the time rows.  Row i iterates its own
    equation from row i - 1 until the sup-change of an iteration falls below
    tol; every row stays within [0, max phi].  Raises NumericsError, naming
    the row and its time, if a row needs more than max_iterations, and
    ValueError for the arguments that `solve_violations` rejects.

    phi is a vectorized callable.  The solve keeps the values (nt + 1 rows
    of nx), the spectra of W w (nt + 1 complex rows of n_fft // 2 + 1) and
    the two semigroups' kernel spectra and row sums (nt + substeps - 1 real
    rows of each width); at 401 x 150 that is about 2.4 MB.  P_t phi and
    each row's rectangle sum are formed `_BLOCK_ROWS` time levels at a time,
    so no other array spans more than one block of rows.
    """
    raise_violations(solve_violations(t_end, beta, tol))
    x_grid = grids.x_grid
    phi_vals = _phi_on_grid(phi, x_grid)
    nt, nx, j_sub = grids.nt, grids.nx, grids.substeps
    t_grid = np.linspace(0.0, t_end, nt + 1)
    delta = t_end / nt

    steps = HeatSemigroup(delta * np.arange(1, nt + 1), x_grid)  # row k-1: s = k delta
    subs = HeatSemigroup(delta * np.arange(1, j_sub) / j_sub, x_grid)  # row j-1: j delta/j_sub

    v = np.empty((nt + 1, nx))
    v[0] = phi_vals
    phi_hat = steps.transform(phi_vals)
    for lo in range(0, nt, _BLOCK_ROWS):  # row 1 + k: P_{(k+1) delta} phi
        v[1 + lo : 1 + lo + _BLOCK_ROWS] = steps.apply(slice(lo, lo + _BLOCK_ROWS), phi_hat)

    power = 1.0 + beta
    fracs = (np.arange(1, j_sub) / j_sub)[:, None]  # substep j interpolates at j/j_sub
    # spectra of W w, one row per final time row; both semigroups share the
    # grid, so one transform serves both
    w_hat = np.empty((nt + 1, steps.n_fft // 2 + 1), dtype=complex)
    w_hat[0] = steps.transform(phi_vals**power)
    iterations, residual = 0, 0.0
    for i in range(1, nt + 1):
        # P_{t_i} phi less the left rectangles P_{k delta} w[i - k], k = 1..i-1
        base = v[i] - delta * steps.apply_sum(w_hat[i - 1 : 0 : -1])
        # first interval [0, delta]: the substeps read w[i] and w[i - 1]
        prev_hat = fracs * w_hat[i - 1]
        row = v[i - 1]
        for count in range(1, max_iterations + 1):
            w_row = np.maximum(row, 0.0) ** power
            acc = w_row + subs.apply_sum((1.0 - fracs) * steps.transform(w_row) + prev_hat)
            new = np.maximum(base - acc * (delta / j_sub), 0.0)
            change = float(np.max(np.abs(new - row)))
            row = new
            if change < tol:
                break
        else:
            raise NumericsError(
                f"row {i} (t = {t_grid[i]:.6g}) did not reach tol={tol} in {max_iterations} "
                f"iterations; final change {change:.3e}"
            )
        v[i] = row
        w_hat[i] = steps.transform(np.maximum(row, 0.0) ** power)
        iterations, residual = max(iterations, count), max(residual, change)
    return LogLaplaceSolution(
        x_grid=x_grid, t_grid=t_grid, values=v, residual=residual, iterations=iterations,
        beta=beta,
    )


def indicator_violations(
    a: float, b: float, height: float, ramp: float, prefix: str = ""
) -> list[str]:
    """Every rule of `smoothed_indicator` the values break, naming each
    argument with the given prefix; empty if they are valid.  A negative or
    non-finite height would give a phi that `solve_mild` rejects."""
    errs = []
    if not a < b:
        errs.append(f"{prefix}a must be < {prefix}b, got {a}, {b}")
    if not ramp > 0:
        errs.append(f"{prefix}ramp must be > 0, got {ramp}")
    if not 0.0 <= height < math.inf:
        errs.append(f"{prefix}height must be finite and >= 0, got {height}")
    return errs


def smoothed_indicator(a: float, b: float, height: float, ramp: float):
    """C^1 plateau of the given height on [a, b] with cosine ramps of the
    given width outside; the smoothed test function used in duality runs."""
    raise_violations(indicator_violations(a, b, height, ramp))

    def phi(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        inside = (y >= a) & (y <= b)
        out[inside] = 1.0
        left = (y >= a - ramp) & (y < a)
        out[left] = 0.5 * (1.0 + np.cos(np.pi * (a - y[left]) / ramp))
        right = (y > b) & (y <= b + ramp)
        out[right] = 0.5 * (1.0 + np.cos(np.pi * (y[right] - b) / ramp))
        return height * out

    return phi
