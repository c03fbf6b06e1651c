"""Finite measures on the line: atoms plus a gridded density component.

A FiniteMeasure is immutable after construction and supports integration of
vectorized functions (atom sum plus trapezoidal quadrature on the declared
density grid) and position sampling for particle initialization.

Text serialization format (one measure per file):

    atoms <n>
    <location> <mass>        (n lines)
    density <m>
    <location> <value>       (m lines)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .textio import fnum
from typing import Callable

import numpy as np

__all__ = ["FiniteMeasure", "dirac", "gridded_density", "save_measure", "load_measure"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteMeasure:
    atom_locations: np.ndarray
    atom_masses: np.ndarray
    density_grid: np.ndarray
    density_values: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "atom_locations", _frozen(self.atom_locations))
        object.__setattr__(self, "atom_masses", _frozen(self.atom_masses))
        object.__setattr__(self, "density_grid", _frozen(self.density_grid))
        object.__setattr__(self, "density_values", _frozen(self.density_values))
        if self.atom_locations.shape != self.atom_masses.shape:
            raise ValueError("atom locations and masses must have equal length")
        if self.density_grid.shape != self.density_values.shape:
            raise ValueError("density grid and values must have equal length")
        if self.atom_locations.size and not (np.diff(self.atom_locations) > 0).all():
            raise ValueError("atom locations must be strictly increasing")
        if self.density_grid.size:
            if self.density_grid.size < 2:
                raise ValueError("density grid needs at least 2 points")
            if not (np.diff(self.density_grid) > 0).all():
                raise ValueError("density grid must be strictly increasing")
        if (self.atom_masses <= 0).any():
            raise ValueError("atom masses must be positive")
        if (self.density_values < 0).any():
            raise ValueError("density values must be nonnegative")
        total = float(self.atom_masses.sum()) + self._density_mass()
        if not np.isfinite(total):
            raise ValueError("total mass must be finite")
        object.__setattr__(self, "total_mass", total)

    def _density_mass(self) -> float:
        if self.density_grid.size == 0:
            return 0.0
        return float(np.trapezoid(self.density_values, self.density_grid))

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]):
        """<mu, f>: atom sum plus trapezoid quadrature of f against the
        density, along the last axis of f's values.  f may return one row
        per point of a panel, and the result is then an array; a scalar
        result is a float."""
        total = 0.0
        if self.atom_locations.size:
            total = total + np.sum(self.atom_masses * np.asarray(f(self.atom_locations)), axis=-1)
        if self.density_grid.size:
            vals = self.density_values * np.asarray(f(self.density_grid))
            total = total + np.trapezoid(vals, self.density_grid, axis=-1)
        return float(total) if np.ndim(total) == 0 else total

    def sample_positions(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. positions from the normalized measure.

        The density component is sampled by inverting its piecewise-linear
        cumulative mass (mass within each grid cell is spread uniformly).
        """
        if self.total_mass <= 0:
            raise ValueError("cannot sample from a zero measure")
        atom_total = float(self.atom_masses.sum())
        u_comp = gen.random(n) * self.total_mass
        from_atoms = u_comp < atom_total
        out = np.empty(n)
        n_atom = int(from_atoms.sum())
        if n_atom:
            probs = self.atom_masses / atom_total
            idx = gen.choice(self.atom_masses.size, size=n_atom, p=probs)
            out[from_atoms] = self.atom_locations[idx]
        n_dens = n - n_atom
        if n_dens:
            cell = 0.5 * (self.density_values[1:] + self.density_values[:-1]) * np.diff(
                self.density_grid
            )
            cum = np.concatenate([[0.0], np.cumsum(cell)])
            u = gen.random(n_dens) * cum[-1]
            out[~from_atoms] = np.interp(u, cum, self.density_grid)
        return out


def dirac(location: float, mass: float = 1.0) -> FiniteMeasure:
    return FiniteMeasure(
        atom_locations=np.array([location]),
        atom_masses=np.array([mass]),
        density_grid=np.array([]),
        density_values=np.array([]),
    )


def gridded_density(grid, values) -> FiniteMeasure:
    return FiniteMeasure(
        atom_locations=np.array([]),
        atom_masses=np.array([]),
        density_grid=np.asarray(grid, dtype=float),
        density_values=np.asarray(values, dtype=float),
    )


def save_measure(mu: FiniteMeasure, path: str | Path) -> None:
    lines = [f"atoms {mu.atom_locations.size}"]
    for loc, m in zip(mu.atom_locations, mu.atom_masses):
        lines.append(f"{fnum(loc)} {fnum(m)}")
    lines.append(f"density {mu.density_grid.size}")
    for loc, v in zip(mu.density_grid, mu.density_values):
        lines.append(f"{fnum(loc)} {fnum(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_measure(path: str | Path) -> FiniteMeasure:
    tokens = Path(path).read_text().split("\n")
    tokens = [t.strip() for t in tokens if t.strip()]
    pos = 0

    def expect_header(name: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"{path}: missing '{name}' header")
        parts = tokens[pos].split()
        if len(parts) != 2 or parts[0] != name or not parts[1].isdecimal():
            raise ValueError(f"{path}: expected '{name} <count>' at line {pos + 1}")
        pos += 1
        return int(parts[1])

    def read_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal pos
        a = np.empty(count)
        b = np.empty(count)
        for i in range(count):
            if pos >= len(tokens):
                raise ValueError(f"{path}: truncated file")
            try:
                a[i], b[i] = map(float, tokens[pos].split())
            except ValueError:  # not two columns, or not numbers
                raise ValueError(f"{path}: expected two numbers at line {pos + 1}") from None
            pos += 1
        return a, b

    n_atoms = expect_header("atoms")
    atom_loc, atom_mass = read_pairs(n_atoms)
    n_dens = expect_header("density")
    dens_loc, dens_val = read_pairs(n_dens)
    return FiniteMeasure(
        atom_locations=atom_loc,
        atom_masses=atom_mass,
        density_grid=dens_loc,
        density_values=dens_val,
    )
