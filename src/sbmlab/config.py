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
reports them together.  `validate()` states the rules every kind shares;
each kind's own rules are its `Kind.violations` in `harness.REGISTRY`,
which also names the kinds that `kind` and a `[section]` may take.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path

from .errors import ConfigError
from .kernels import bandwidth_violations, lambda_violations
from .measures import load_measure
from .particles import initial_measure_violations, model_violations, whole_step_dt

__all__ = ["ExperimentConfig", "load_config", "parse_config_text", "config_hash"]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


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
    # criterion series
    gamma: float = 0.2
    q_criterion: float = 1.4
    k_window: float = 1.0
    c_free: float = 1.0
    n_max: int = 64
    r_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    # holder
    holder_input: str | None = None  # CSV of field values; else synthetic
    holder_synthetic: str = "brownian"  # a key of harness.SYNTHETIC_FIELDS
    holder_lags: tuple[float, ...] = (4.0, 64.0)  # also the tanaka kind's fit of H
    # unbounded2d (the d = 1 probe is the continuous control)
    resolutions: tuple[float, ...] = (0.2, 0.1, 0.05)
    window: tuple[float, ...] = (-1.5, 1.5)

    def validate(self) -> list[str]:
        """Every broken rule that all kinds share (the model, orchestration,
        lam, bandwidth and input files), then those of `Kind.violations`."""
        errs = []
        kind = _registry().get(self.kind)
        if kind is None:
            errs.append(f"kind must be one of {tuple(_registry())}, got {self.kind!r}")
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
        errs.extend(lambda_violations(self.lam, "lam"))
        errs.extend(lambda_violations(self.lam_alt, "lam_alt"))
        errs.extend(bandwidth_violations(self.bandwidth))
        if self.initial_measure is not None and not Path(self.initial_measure).exists():
            errs.append(f"initial_measure file does not exist: {self.initial_measure}")
        elif self.initial_measure is not None:
            errs.extend(self._initial_measure_violations())
        if self.holder_input is not None and not Path(self.holder_input).exists():
            errs.append(f"holder_input file does not exist: {self.holder_input}")
        if kind is not None:
            errs.extend(kind.violations(self))
        return list(dict.fromkeys(errs))  # a rule two owners state is reported once

    def _initial_measure_violations(self) -> list[str]:
        try:
            mu = load_measure(self.initial_measure)
        except (OSError, ValueError) as exc:
            return [f"initial_measure must be a measure file (atoms, then density): {exc}"]
        return [f"initial_measure {self.initial_measure}: {v}"
                for v in initial_measure_violations(mu)]


@cache
def _registry() -> dict:
    """harness.REGISTRY: every kind's name and rules."""
    from .harness import REGISTRY  # here, not at the top: harness imports this module

    return REGISTRY


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
            if section not in _registry():
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
