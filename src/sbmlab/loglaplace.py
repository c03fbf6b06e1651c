"""Deterministic mild-equation solver for the log-Laplace equation.

Solves, by Picard iteration on a space-time grid,

    V_t = P_t phi - int_0^t P_s (V_{t-s}^(1+beta)) ds,

with the Gaussian semigroup P_s realized as a row-normalized, truncated
(8 sqrt(s)) convolution matrix on the grid.  Row normalization makes the
discrete semigroup conservative (P_s 1 = 1 exactly), so spatially constant
data reduces the scheme to the exact mass ODE v' = -v^(1+beta).

The time integral uses left rectangles on the solver time grid with substep
refinement of the first interval, where the heat kernel concentrates.

The harness `duality` kind compares the Monte Carlo Laplace functional
E[exp(-<X_t, phi>)] of the particle system against exp(-<X_0, V_t>).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NumericsError
from .measures import FiniteMeasure
from .textio import fnum

__all__ = [
    "GridSpec",
    "LogLaplaceSolution",
    "solve_mild",
    "heat_matrix",
    "save_solution_csv",
    "smoothed_indicator",
]


@dataclass(frozen=True)
class GridSpec:
    x_min: float = -10.0
    x_max: float = 10.0
    nx: int = 401
    nt: int = 50
    substeps: int = 4  # refinement of the first time interval

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.nx < 8 or self.nt < 1 or self.substeps < 1:
            raise ValueError("grid too small")

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def heat_matrix(s: float, x_grid: np.ndarray) -> np.ndarray:
    """Row-normalized Gaussian convolution matrix with kernel truncation at
    8 sqrt(s); the identity at s = 0."""
    n = x_grid.size
    if s == 0.0:
        return np.eye(n)
    d = x_grid[:, None] - x_grid[None, :]
    k = np.exp(-d * d / (2.0 * s))
    k[np.abs(d) > 8.0 * math.sqrt(s)] = 0.0
    w = np.full(n, x_grid[1] - x_grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    m = k * w[None, :]
    m /= m.sum(axis=1, keepdims=True)
    return m


@dataclass
class LogLaplaceSolution:
    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (nt+1, nx)
    residual: float  # final Picard sup-change
    iterations: int
    beta: float

    def at_time(self, t: float) -> np.ndarray:
        """V(t, .) on the space grid, interpolated linearly in t."""
        out = np.empty(self.x_grid.size)
        for j in range(self.x_grid.size):
            out[j] = np.interp(t, self.t_grid, self.values[:, j])
        return out

    def interpolator(self, t: float) -> Callable[[np.ndarray], np.ndarray]:
        row = self.at_time(t)
        return lambda y: np.interp(y, self.x_grid, row)


def _phi_on_grid(phi, x_grid: np.ndarray) -> np.ndarray:
    if callable(phi):
        vals = np.asarray(phi(x_grid), dtype=float)
    elif isinstance(phi, FiniteMeasure):
        vals = np.interp(x_grid, phi.density_grid, phi.density_values, left=0.0, right=0.0)
    else:
        grid, values = phi
        vals = np.interp(x_grid, np.asarray(grid, float), np.asarray(values, float),
                         left=0.0, right=0.0)
    if vals.shape != x_grid.shape:
        raise ValueError("phi must evaluate to one value per grid point")
    if not np.all(np.isfinite(vals)) or (vals < 0).any():
        raise ValueError("phi must be nonnegative and finite on the grid")
    return vals


def solve_mild(
    phi,
    t_end: float,
    beta: float,
    grids: GridSpec = GridSpec(),
    tol: float = 1e-9,
    max_iterations: int = 200,
    nonlinear: bool = True,
) -> LogLaplaceSolution:
    """Picard iteration on the mild form, starting from the linear flow
    V0 = P_t phi; every iterate stays within [0, max phi].

    phi may be a vectorized callable, a (grid, values) pair, or a
    FiniteMeasure whose density component is used.  nonlinear=False disables
    the branching term, making the fixed point exactly P_t phi.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    x_grid = grids.x_grid
    phi_vals = _phi_on_grid(phi, x_grid)
    nt, nx, j_sub = grids.nt, grids.nx, grids.substeps
    t_grid = np.linspace(0.0, t_end, nt + 1)
    delta = t_end / nt

    mats = [heat_matrix(k * delta, x_grid) for k in range(nt + 1)]
    sub_mats = [heat_matrix(j * delta / j_sub, x_grid) for j in range(j_sub)]

    pt_phi = np.empty((nt + 1, nx))
    for i in range(nt + 1):
        pt_phi[i] = mats[i] @ phi_vals

    v = pt_phi.copy()
    if not nonlinear:
        return LogLaplaceSolution(
            x_grid=x_grid, t_grid=t_grid, values=v, residual=0.0, iterations=0, beta=beta
        )

    power = 1.0 + beta
    residual = math.inf
    for iteration in range(1, max_iterations + 1):
        w = np.maximum(v, 0.0) ** power  # (nt+1, nx)
        pw = np.empty((nt, nt + 1, nx))
        for k in range(1, nt):
            pw[k] = (mats[k] @ w.T).T
        v_new = pt_phi.copy()
        for i in range(1, nt + 1):
            # first interval [0, delta] with substeps and linear interpolation
            acc = np.zeros(nx)
            for j in range(j_sub):
                frac = j / j_sub
                w_interp = (1.0 - frac) * w[i] + frac * w[i - 1]
                acc += sub_mats[j] @ w_interp if j > 0 else w_interp
            v_new[i] -= acc * (delta / j_sub)
            # remaining intervals, left rectangle at s_k = k delta
            for k in range(1, i):
                v_new[i] -= delta * pw[k, i - k]
        v_new = np.maximum(v_new, 0.0)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < tol:
            return LogLaplaceSolution(
                x_grid=x_grid,
                t_grid=t_grid,
                values=v,
                residual=residual,
                iterations=iteration,
                beta=beta,
            )
    raise NumericsError(
        f"Picard iteration did not reach tol={tol} in {max_iterations} iterations; "
        f"final residual {residual:.3e}"
    )


def save_solution_csv(sol: LogLaplaceSolution, path: str | Path) -> None:
    lines = ["t,x,v"]
    for i, t in enumerate(sol.t_grid):
        for j, x in enumerate(sol.x_grid):
            lines.append(f"{fnum(t)},{fnum(x)},{fnum(sol.values[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n")


def smoothed_indicator(a: float, b: float, height: float, ramp: float):
    """C^1 plateau of the given height on [a, b] with cosine ramps of the
    given width outside; the smoothed test function used in duality runs."""
    if b <= a or ramp <= 0:
        raise ValueError("need a < b and ramp > 0")

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
