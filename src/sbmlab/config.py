"""Experiment configuration: a flat `key = value` text format with `#`
comments and kind-scoped sections.

A config file holds global keys plus optional `[kind]` sections whose keys
apply only when that experiment kind runs:

    # common settings
    beta = 0.5
    n_scale = 2000
    seed = 11

    [duality]
    phi_height = 0.5
    replicas = 400

Validation collects every violation (unknown keys, missing required keys,
domain errors such as beta outside (0,1) or the branch_rate*dt cap) and
reports them together.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .loglaplace import grid_violations
from .continuity import criterion_violations, dyadic_lags, holder_field_violations, read_field
from .particles import model_violations, whole_step_dt

__all__ = ["ExperimentConfig", "load_config", "parse_config_text", "config_hash", "KINDS"]

KINDS = (
    "simulate",
    "duality",
    "tanaka",
    "moments",
    "jumps",
    "timechange",
    "stabletails",
    "criterion",
    "holder",
    "unbounded2d",
)

# the moments kind's clock histogram: lo, hi, bin width (validate requires
# every pair endpoint to be one of its bin edges)
MOMENTS_HISTOGRAM = (-8.0, 8.0, 0.0125)

# the holder kind's synthetic fields (harness._holder_field)
HOLDER_SYNTHETICS = ("linear", "sqrt_cusp", "brownian")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _whole(value: float, least: int) -> bool:
    return float(value).is_integer() and value >= least


def _is_range(values: tuple[float, ...]) -> bool:
    """Two finite values lo < hi."""
    return len(values) == 2 and all(map(math.isfinite, values)) and values[0] < values[1]


@dataclass
class ExperimentConfig:
    kind: str = "simulate"
    # model
    beta: float = 0.5
    n_scale: int = 1000
    dt: float | None = None  # defaults to the branch_rate*dt cap, fitted to t_end
    t_end: float = 0.5
    dim: int = 1
    particle_cap: int = 10_000_000
    snapshot_stride: int = 1  # the stride of the simulate kind's path files
    initial_measure: str | None = None  # measure file path; default is delta_0
    # orchestration
    replicas: int = 100
    replica_start: int = 0
    seed: int = 0
    workers: int = 1
    out: str = "out"
    save_paths: str = "first"  # none | first | all
    max_retries: int = 3
    # analysis
    lam: float = 1.0
    lam_alt: float = 2.0
    x_panel: tuple[float, ...] = field(default_factory=tuple)  # min max count
    x_eval: tuple[float, ...] = (0.25, 0.5)
    bandwidth: float = 0.1
    q_moment: float = 1.2
    distances: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    pair_centers: tuple[float, ...] = (-0.5, -0.25, 0.0, 0.25, 0.5)
    theta_grid: tuple[float, ...] = (0.5, 1.0, 2.0)
    x1: float = -0.1
    x2: float = 0.1
    jump_units: tuple[float, ...] = (40.0, 400.0, 6.0)  # min, max lattice units, count
    # duality solver
    phi_a: float = -1.0
    phi_b: float = 1.0
    phi_height: float = 0.5
    phi_ramp: float = 0.25
    solver_nx: int = 401
    solver_nt: int = 100
    solver_x_min: float = -10.0
    solver_x_max: float = 10.0
    # stable tails
    path_steps: int = 256
    inf_x_values: tuple[float, ...] = (1.5, 2.0, 2.5, 3.0, 3.5)
    # criterion series
    gamma: float = 0.2
    q_criterion: float = 1.4
    k_window: float = 1.0
    c_free: float = 1.0
    n_max: int = 64
    r_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    # holder
    holder_input: str | None = None  # CSV of field values; else synthetic
    holder_synthetic: str = "brownian"  # one of HOLDER_SYNTHETICS
    holder_lags: tuple[float, ...] = (4.0, 64.0)  # also the tanaka kind's fit of H
    # unbounded2d (the d = 1 probe is the continuous control)
    resolutions: tuple[float, ...] = (0.2, 0.1, 0.05)
    window: tuple[float, ...] = (-1.5, 1.5)

    def panel_grid(self):
        """The Tanaka panel: the x_panel linspace (default -1 1 41) plus 0 and
        every x_eval, sorted; a point within PANEL_TOL of one already there
        is not added."""
        import numpy as np

        from .tanaka import PANEL_TOL

        lo, hi, count = self.x_panel if len(self.x_panel) == 3 else (-1.0, 1.0, 41)
        xs = np.linspace(lo, hi, int(count))
        for x in (0.0, *self.x_eval):
            if xs.size == 0 or np.abs(xs - x).min() > PANEL_TOL:
                xs = np.append(xs, x)
        return np.sort(xs)

    def moment_pairs(self) -> list[tuple[float, float]]:
        """The moments kind's pairs (c - d/2, c + d/2), grouped by distance
        in the order of `distances`, centers in the order of `pair_centers`."""
        return [(c - d / 2, c + d / 2) for d in self.distances for c in self.pair_centers]

    def validate(self) -> list[str]:
        errs = []
        if self.kind not in KINDS:
            errs.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        # the cap binds the step make_params runs, not the dt requested
        step = self.dt if self.dt is None else whole_step_dt(self.dt, self.t_end)
        errs.extend(model_violations(self.beta, self.n_scale, step, self.t_end, self.dim,
                                     self.particle_cap, self.snapshot_stride))
        if self.replicas < 1:
            errs.append(f"replicas must be >= 1, got {self.replicas}")
        if self.replica_start < 0:
            errs.append(f"replica_start must be >= 0, got {self.replica_start}")
        if self.replica_start + self.replicas > 2**32:
            # retry streams use the indices from 2^32 on (harness)
            errs.append(
                "replica_start + replicas must be <= 2^32, got "
                f"{self.replica_start + self.replicas}"
            )
        if not 0 <= self.seed < 2**64:
            # streams key on the seed's low 64 bits, so wider seeds alias
            errs.append(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.workers < 1:
            errs.append(f"workers must be >= 1, got {self.workers}")
        if self.save_paths not in ("none", "first", "all"):
            errs.append(f"save_paths must be none|first|all, got {self.save_paths!r}")
        if self.lam <= 0:
            errs.append(f"lam must be > 0, got {self.lam}")
        if self.lam_alt <= 0:
            errs.append(f"lam_alt must be > 0, got {self.lam_alt}")
        if self.kind == "tanaka" and self.lam_alt == self.lam:
            errs.append(f"lam_alt must differ from lam for kind tanaka, both are {self.lam}")
        if self.bandwidth <= 0:
            errs.append(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.initial_measure is not None and not Path(self.initial_measure).exists():
            errs.append(f"initial_measure file does not exist: {self.initial_measure}")
        if self.holder_input is not None and not Path(self.holder_input).exists():
            errs.append(f"holder_input file does not exist: {self.holder_input}")
        elif self.kind == "holder" and self.holder_input is not None:
            errs.extend(self._holder_input_violations())
        if self.kind == "moments":
            errs.extend(self._moments_violations())
        if self.kind == "timechange" and not self.x1 <= self.x2:
            errs.append(f"need x1 <= x2, got ({self.x1}, {self.x2})")
        if self.kind == "duality":
            errs.extend(grid_violations(self.solver_x_min, self.solver_x_max, self.solver_nx,
                                        self.solver_nt, prefix="solver_"))
        if self.kind == "unbounded2d":
            if not _is_range(self.window):
                errs.append(f"window must be two finite values lo < hi, got {self.window}")
            # a probe histogram's name prints its width with 6 significant digits
            if not (self.resolutions and all(0 < h < math.inf for h in self.resolutions)
                    and len({f"{h:g}" for h in self.resolutions}) == len(self.resolutions)):
                errs.append(f"resolutions must be one or more finite bin widths > 0, distinct "
                            f"to 6 significant digits, got {self.resolutions}")
        if self.kind == "tanaka" and self.x_panel and not (
            len(self.x_panel) == 3 and _is_range(self.x_panel[:2]) and _whole(self.x_panel[2], 2)
        ):
            errs.append(f"x_panel must be empty (the panel -1 1 41) or min max count, with "
                        f"finite min < max and a whole count >= 2, got {self.x_panel}")
        if self.kind == "jumps" and not (
            len(self.jump_units) == 3 and all(0 < u < math.inf for u in self.jump_units[:2])
            and _whole(self.jump_units[2], 1)
        ):
            errs.append(f"jump_units must be min max count, with finite min, max > 0 and a "
                        f"whole count >= 1, got {self.jump_units}")
        if self.kind in ("holder", "tanaka") and not (
            len(self.holder_lags) == 2 and all(_whole(lag, 1) for lag in self.holder_lags)
            and len(dyadic_lags(*self.holder_lags)) >= 3
        ):
            errs.append(f"holder_lags must be two whole lags lo hi >= 1 with at least three "
                        f"powers of two between them, got {self.holder_lags}")
        if self.kind == "holder" and self.holder_synthetic not in HOLDER_SYNTHETICS:
            errs.append(f"holder_synthetic must be one of {HOLDER_SYNTHETICS}, "
                        f"got {self.holder_synthetic!r}")
        if self.kind == "stabletails" and self.path_steps < 1:
            errs.append(f"path_steps must be >= 1, got {self.path_steps}")
        if self.kind == "criterion":
            # the kind evaluates the series at r_grid[0] and its trend at every r
            errs.extend(criterion_violations(self.beta, self.k_window,
                                             min(self.r_grid, default=1.0), self.n_max))
        return list(dict.fromkeys(errs))  # a rule two owners state is reported once

    def _holder_input_violations(self) -> list[str]:
        try:
            values = read_field(self.holder_input)
        except (OSError, ValueError) as exc:
            return [f"holder_input must be a file of comma-separated numbers: {exc}"]
        lags = self.holder_lags if len(self.holder_lags) == 2 else (1, math.inf)
        return [f"holder_input {self.holder_input}: {v}"
                for v in holder_field_violations(values, lags)]

    def _moments_violations(self) -> list[str]:
        from .tanaka import histogram_functional

        errs = []
        if not 1.0 < self.q_moment < 1.0 + self.beta:
            errs.append(f"q_moment must lie in (1, 1+beta) = (1, {1 + self.beta}), "
                        f"got {self.q_moment}")
        if not all(d > 0 for d in self.distances):
            errs.append(f"distances must all be > 0, got {self.distances}")
        if len(set(self.distances)) != len(self.distances) or len(self.distances) < 2:
            errs.append(f"distances must be two or more distinct values (the kind fits "
                        f"slopes against log d), got {self.distances}")
        if not self.pair_centers:
            errs.append("pair_centers must not be empty")
        edges = histogram_functional(*MOMENTS_HISTOGRAM).meta["edges"]
        off = sorted({x for pair in self.moment_pairs() for x in pair
                      if abs(edges - x).min() > 1e-9})
        if off:
            errs.append(f"pair endpoints c +- d/2 of pair_centers and distances must be edges "
                        f"of the clock histogram (lo, hi, bin width) = {MOMENTS_HISTOGRAM}; "
                        f"these are not: {', '.join(f'{x:g}' for x in off)}")
        return errs


# value parser per field, from its annotation; a new annotation must be
# added here before a field can carry it
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "str | None": str,
    "tuple[float, ...]": _parse_floats,
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config_text(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse the flat key=value format; `[section]` scopes keys to one kind.

    The effective config merges global keys with the section matching the
    requested kind.  All violations are collected into one ConfigError.
    """
    errs: list[str] = []
    values: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in KINDS:
                errs.append(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            errs.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSERS and key != "lambda":
            errs.append(f"line {lineno}: unknown key {key!r}")
            continue
        if section is None or section == (kind or values.get("kind")):
            values[key] = val

    if "lambda" in values:  # accepted alias for the resolvent parameter
        values["lam"] = values.pop("lambda")
    if kind is not None:
        values["kind"] = kind

    cfg_kwargs = {}
    for key, val in values.items():
        try:
            cfg_kwargs[key] = _FIELD_PARSERS[key](val)
        except ValueError:
            errs.append(f"key {key!r}: cannot parse value {val!r}")
    cfg = ExperimentConfig(**cfg_kwargs) if not errs else None
    if cfg is not None:
        errs.extend(cfg.validate())
    if errs:
        raise ConfigError(errs)
    return cfg


def load_config(path: str | Path, kind: str | None = None) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError listing every
    violation, not just the first."""
    p = Path(path)
    if not p.exists():
        raise ConfigError([f"config file does not exist: {path}"])
    return parse_config_text(p.read_text(), kind=kind)


def canonical_lines(cfg: ExperimentConfig) -> list[str]:
    lines = []
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        val = getattr(cfg, f.name)
        if val is None:
            continue  # None means "use the default"; re-parsing restores it
        if isinstance(val, tuple):
            rendered = " ".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        lines.append(f"{f.name} = {rendered}")
    return lines


_HASH_EXEMPT = {"replicas", "replica_start", "out", "workers", "save_paths"}


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the scientific content of a config; reports that differ only
    in replica ranges or execution details share a hash and may be merged."""
    lines = [
        line
        for line in canonical_lines(cfg)
        if line.split(" = ")[0] not in _HASH_EXEMPT
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
