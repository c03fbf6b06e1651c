"""Critical branching Brownian particle system approximating the
(1+beta)-stable super-Brownian motion.

Each particle carries mass 1/N, moves as a Brownian motion, and branches at
rate (1+beta) * N^beta into a Slack-law offspring count; the compound rate
times (f(s) - s) then rescales exactly to the branching mechanism u^(1+beta),
so N enters only through initial-mass rounding and the motion/branching
interleaving.  Branch events are counted step by step, and logged (parent
location, offspring count) only for a kept path.  Every registered
functional ends as one `Total` at t_end, which `PathRecorder.find_total`,
the one search of them, finds by its meta.  The trapezoid rule on the step
grid is linear in X_s, so an occupation integral is one weighted point sum
over the positions of every step (weight dt/N, and dt/2N at both ends),
taken a block of buffered steps at a time; an event functional adds its
sum over the same block's events.  Neither keeps a table in time nor needs
the log.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, UsageError
from .measures import FiniteMeasure
from .rng import OffspringLaw, RngStream, make_offspring_law, sample_offspring
from .textio import fnum

__all__ = [
    "ModelParams",
    "ParticleState",
    "OccupationFunctional",
    "EventFunctional",
    "Total",
    "PathRecorder",
    "stable_order",
    "dt_at_cap",
    "model_violations",
    "whole_step_dt",
    "make_params",
    "initial_measure_violations",
    "init_particles",
    "step",
    "simulate",
    "save_events",
    "save_snapshots",
]

_DT_CAP = 0.1  # branch_rate * dt must not exceed this


@dataclass(frozen=True)
class ModelParams:
    beta: float
    n_scale: int  # particles per unit of initial mass; particle mass is 1/n_scale
    dt: float
    t_end: float
    dim: int = 1
    particle_cap: int = 10_000_000
    snapshot_stride: int = 1

    def __post_init__(self):
        errs = model_violations(self.beta, self.n_scale, self.dt, self.t_end, self.dim,
                                self.particle_cap, self.snapshot_stride)
        if errs:
            raise ValueError("; ".join(errs))

    @property
    def branch_rate(self) -> float:
        return (1.0 + self.beta) * self.n_scale**self.beta

    @property
    def mass_per_particle(self) -> float:
        return 1.0 / self.n_scale

    @property
    def c_beta(self) -> float:
        return self.beta * (self.beta + 1.0) / math.gamma(1.0 - self.beta)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def model_violations(
    beta: float, n_scale: int, dt: float | None, t_end: float, dim: int = 1,
    particle_cap: int = 1, snapshot_stride: int = 1,
) -> list[str]:
    """Every rule of `ModelParams` the values break, naming each field; empty
    if they are valid.  dt None stands for the step `make_params` fits under
    the branch_rate*dt cap, which obeys every dt rule."""
    errs = []
    if not (0.0 < beta < 1.0):
        errs.append(f"beta must lie in (0, 1), got {beta}")
    if n_scale < 1:
        errs.append(f"n_scale must be >= 1, got {n_scale}")
    if not 0.0 <= t_end < math.inf:
        errs.append(f"t_end must be finite and >= 0, got {t_end}")
    if dim not in (1, 2):
        errs.append(f"dim must be 1 or 2, got {dim}")
    if particle_cap < 1:
        errs.append(f"particle_cap must be >= 1, got {particle_cap}")
    if snapshot_stride < 1:
        errs.append(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if dt is not None and not dt > 0:
        errs.append(f"dt must be > 0, got {dt}")
    elif dt is not None and 0.0 < beta < 1.0 and n_scale >= 1:
        # n_scale**beta is complex at a negative scale, so the cap waits for it
        rate = (1.0 + beta) * n_scale**beta
        if rate * dt > _DT_CAP * (1 + 1e-9):
            errs.append(
                f"branch_rate*dt = {rate * dt:.6g} exceeds the cap {_DT_CAP} "
                f"(branch_rate={rate:.6g}, dt={dt:.6g})"
            )
    return errs


def dt_at_cap(beta: float, n_scale: int) -> float:
    """Largest admissible dt for the given scale."""
    return _DT_CAP / ((1.0 + beta) * n_scale**beta)


def make_params(
    beta: float,
    n_scale: int,
    t_end: float,
    dim: int = 1,
    dt: float | None = None,
    **kwargs,
) -> ModelParams:
    """ModelParams with a dt that divides t_end exactly, at or below the
    branch_rate*dt cap."""
    if dt is None:
        cap = dt_at_cap(beta, n_scale)
        if t_end > 0:
            n_steps = max(1, math.ceil(t_end / cap - 1e-9))
            dt = t_end / n_steps
        else:
            dt = cap
    else:
        dt = whole_step_dt(dt, t_end)
    return ModelParams(beta=beta, n_scale=n_scale, dt=dt, t_end=t_end, dim=dim, **kwargs)


def whole_step_dt(dt: float, t_end: float) -> float:
    """The step `make_params` runs for a requested dt: the nearest one that
    divides a positive t_end into a finite number of whole steps (dt itself
    otherwise)."""
    if dt > 0 and 0.0 < t_end and math.isfinite(t_end / dt):
        return t_end / max(1, int(round(t_end / dt)))
    return dt


@lru_cache(maxsize=32)
def _law_for(beta: float) -> OffspringLaw:
    return make_offspring_law(beta)


@dataclass
class ParticleState:
    time: float
    positions: np.ndarray  # (n,) in d=1, (n, 2) in d=2
    mass_per_particle: float

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def total_mass(self) -> float:
        return self.count * self.mass_per_particle


@dataclass
class OccupationFunctional:
    """A named functional registered for occupation accumulation.

    sum_fn(points, weight) maps a batch of positions ((n,) in d=1, sorted
    ascending; (n, 2) in d=2), each carrying the scalar weight, to the
    (width,) sum of weight * f(point): a kernel panel by its kernel sums, a
    histogram by one search of the sorted points.  `simulate` forms the
    trapezoid integral of <X_s, f> over [0, t_end] on the step grid from such
    sums, one per block of steps (see `simulate`).  meta carries descriptive
    fields (kernel kind, grid, bin width) by which a reader finds the total
    (`PathRecorder.find_total`).
    """

    name: str
    sum_fn: Callable[[np.ndarray, float], np.ndarray]
    width: int = 1
    meta: dict = field(default_factory=dict)

    def state_value(self, points: np.ndarray, weight: float) -> np.ndarray:
        if points.shape[0] == 0:
            return np.zeros(self.width)
        return np.asarray(self.sum_fn(points, weight), dtype=float)


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.argsort(keys, kind="stable")` and the keys in that order.

    Sorts with the default (faster, unstable) algorithm, which gives the same
    permutation whenever the sorted keys are strictly increasing; only a tie
    (or a NaN) falls back to the stable sort."""
    order = np.argsort(keys)
    ordered = keys[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
    return order, ordered


@dataclass
class EventFunctional:
    """A named sum over the branch events up to t_end, kept without the log.

    sum_fn(locations, net_mass) maps a batch of events (locations (n,) in
    d=1, (n, 2) in d=2, and their net masses (n,)) to its (width,) sum.
    `simulate` calls it once per block of steps, on the block's events, and
    adds the result to a running total in block order, so the total depends
    on the path alone (not on the worker count).  meta locates the total on a
    recorder (`PathRecorder.find_total`), as it does for occupations."""

    name: str
    sum_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    width: int = 1
    meta: dict = field(default_factory=dict)


@dataclass
class Total:
    """One registered functional at t_end: the occupation integral
    int_0^t_end <X_s, f> ds of an OccupationFunctional, or the sum of an
    EventFunctional over every branch event."""

    values: np.ndarray  # (width,)
    meta: dict


@dataclass(frozen=True, eq=False)
class PathRecorder:
    """Step-resolution record of one replica: masses, the total at t_end of
    every registered functional, the number of branch events at each step,
    position snapshots, the extinction time and, for a kept path, the
    branch-event log (locations, offspring counts).

    Without the log (`simulate` with keep_path False) reading the event
    locations, offspring or net masses raises UsageError; the event times
    come from the per-step counts either way."""

    params: ModelParams
    step_times: np.ndarray
    masses: np.ndarray
    mass_occupation: np.ndarray  # cumulative trapezoid of total mass
    totals: dict[str, Total]
    snapshot_times: np.ndarray
    snapshots: list[np.ndarray]
    extinction_time: float
    final_positions: np.ndarray
    step_event_counts: np.ndarray  # (steps + 1,): the events of each step
    event_log: tuple[np.ndarray, np.ndarray] | None = None  # (locations, offspring)

    @property
    def event_times(self) -> np.ndarray:
        """The time of every branch event, in order."""
        return np.repeat(self.step_times, self.step_event_counts)

    @property
    def event_locations(self) -> np.ndarray:
        return self._event_array(0, "event_locations")

    @property
    def event_offspring(self) -> np.ndarray:
        return self._event_array(1, "event_offspring")

    @property
    def event_net_mass(self) -> np.ndarray:
        """The mass each event adds, (offspring - 1)/N."""
        return (self._event_array(1, "event_net_mass") - 1) * self.params.mass_per_particle

    def _event_array(self, k: int, name: str) -> np.ndarray:
        if self.event_log is None:
            raise UsageError(f"{name} was not kept: the path was simulated without "
                             "its event log (keep_path False)")
        return self.event_log[k]

    @property
    def horizon(self) -> float:
        return float(self.step_times[-1])

    def find_total(self, kind: str, fits: Callable[[dict], bool] | None = None,
                   **fields) -> Total:
        """The total of the first registered functional whose meta has this
        kind and these fields and, if given, satisfies fits(meta).
        UsageError, naming what to register, if none does."""
        for total in self.totals.values():
            meta = total.meta
            if (meta.get("kind") == kind and all(meta.get(k) == v for k, v in fields.items())
                    and (fits is None or fits(meta))):
                return total
        want = "".join([f" {k}={v!r}" for k, v in fields.items()] + [" that fits"] * bool(fits))
        raise UsageError(f"no {kind} functional{want} was registered for this reader; "
                         "register one before simulate")


def initial_measure_violations(mu: FiniteMeasure) -> list[str]:
    """The rule of `init_particles` on its measure: positive total mass."""
    return [] if mu.total_mass > 0 else ["initial measure must have positive total mass"]


def init_particles(mu: FiniteMeasure, params: ModelParams, stream: RngStream) -> ParticleState:
    """Nearest-integer(N * total_mass) particles, i.i.d. from the normalized mu.

    In d=2 the two coordinates are drawn independently from the same
    normalized one-dimensional measure (product initial condition).
    """
    if violations := initial_measure_violations(mu):
        raise ValueError(violations[0])
    n = int(round(params.n_scale * mu.total_mass))
    if params.dim == 1:
        pos = mu.sample_positions(stream.gen, n)
    else:
        pos = np.column_stack(
            [mu.sample_positions(stream.gen, n), mu.sample_positions(stream.gen, n)]
        )
    return ParticleState(time=0.0, positions=pos, mass_per_particle=params.mass_per_particle)


def _no_events(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (empty) events of a step without branching."""
    return np.empty((0, 2) if dim == 2 else 0), np.empty(0, dtype=np.int64)


def step(
    state: ParticleState, params: ModelParams, stream: RngStream
) -> tuple[ParticleState, tuple[np.ndarray, np.ndarray]]:
    """Advance one time step: Gaussian displacement of variance dt per
    coordinate, then branching with probability branch_rate*dt per particle.

    Returns the new state and the step's events as (locations, offspring
    counts).  Offspring count 1 has probability zero under the Slack law, so
    every logged event changes mass.  The survivors keep their order and the
    children follow, each parent's together.
    """
    new_time = state.time + params.dt
    n = state.count
    if n == 0:
        return ParticleState(new_time, state.positions, state.mass_per_particle), _no_events(
            params.dim
        )
    gen = stream.gen
    pos = gen.normal(0.0, math.sqrt(params.dt), state.positions.shape)
    pos += state.positions
    mask = gen.random(n) < params.branch_rate * params.dt
    n_branch = np.count_nonzero(mask)
    if n_branch == 0:
        return ParticleState(new_time, pos, state.mass_per_particle), _no_events(params.dim)
    ks = sample_offspring(stream, _law_for(params.beta), n_branch)
    parent_pos = pos[mask]
    survivors = pos[np.logical_not(mask, out=mask)]
    new_pos = np.concatenate((survivors, parent_pos.repeat(ks, axis=0)))
    return ParticleState(new_time, new_pos, state.mass_per_particle), (parent_pos, ks)


# particle-steps that `simulate` buffers before it ends a block of steps
_BLOCK_POINTS = 8192


def simulate(
    mu: FiniteMeasure,
    params: ModelParams,
    functionals: Sequence[OccupationFunctional | EventFunctional],
    stream: RngStream,
    keep_path: bool = True,
) -> PathRecorder:
    """Run the particle system to t_end, integrating the registered
    occupation functionals on the step grid and summing the registered event
    functionals over the branch events.

    The recorder always holds the masses, the total of every functional at
    t_end, the number of events at each step and the positions at t = 0 and
    t_end.
    keep_path (the default) adds the path: the branch-event log and the
    positions every params.snapshot_stride steps in between.  It changes no
    draw, so every other output is the same either way.

    The trapezoid integral int <X_s, f> ds ~ sum_s c_s <X_s, f>, with
    c_s = dt/2 at steps 0 and n and dt between, is one weighted point sum
    over the positions of every step.  So the positions of the steps between
    the ends are buffered, and a block ends once it holds _BLOCK_POINTS
    particle-steps, or at the last step: each occupation functional is then
    called once on the block's positions (sorted, in d=1) at weight dt/N and
    adds the result to its total, and each event functional adds its sum_fn
    over the block's events.  Steps 0 and n are calls of their own at weight
    dt/2N.  Blocks are summed in order, so every total depends on the path
    alone; a run without occupation functionals buffers no positions.  The
    total-mass trapezoid is formed once, after the loop.

    Deterministic given the stream.  Raises ResourceLimitError if the
    particle count exceeds params.particle_cap (heavy-tail blowup guard).
    """
    names = [f.name for f in functionals]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate functional names: {names}")
    event_fns = [f for f in functionals if isinstance(f, EventFunctional)]
    functionals = [f for f in functionals if not isinstance(f, EventFunctional)]
    n_steps = params.n_steps
    dt = params.dt
    state = init_particles(mu, params, stream)

    step_times = np.empty(n_steps + 1)
    masses = np.empty(n_steps + 1)
    step_times[0] = 0.0
    masses[0] = state.total_mass
    occupations = [np.zeros(f.width) for f in functionals]
    sums = [np.zeros(f.width) for f in event_fns]

    def add_points(points: np.ndarray, weight: float) -> None:
        if params.dim == 1:
            points = np.sort(points)
        for f, total in zip(functionals, occupations):
            total += f.state_value(points, weight)

    if functionals and n_steps:
        add_points(state.positions, 0.5 * dt * params.mass_per_particle)

    # without the path, the last step is the only one after step 0 kept
    snapshot_stride = params.snapshot_stride if keep_path else max(n_steps, 1)
    snapshot_times = [0.0]
    snapshots = [state.positions.copy()]
    step_event_counts = np.zeros(n_steps + 1, dtype=np.int64)
    ev_locations, ev_offspring = ([empty] for empty in _no_events(params.dim))  # the log
    block_positions, block_points = [], 0  # the current block's steps
    block_locations: list[np.ndarray] = []  # and its events
    block_offspring: list[np.ndarray] = []
    extinction_time = math.inf if state.count > 0 else 0.0

    for i in range(1, n_steps + 1):
        state, (locs, ks) = step(state, params, stream)
        state.time = i * dt  # avoid additive drift over many steps
        if state.count > params.particle_cap:
            raise ResourceLimitError(
                f"particle count {state.count} exceeded cap {params.particle_cap} "
                f"at t={state.time:.6g}"
            )
        step_times[i] = state.time
        masses[i] = state.total_mass
        if i < n_steps:
            block_points += state.count
            if functionals:
                block_positions.append(state.positions)
        if ks.size:
            step_event_counts[i] = ks.size
            if keep_path or event_fns:
                block_locations.append(locs)
                block_offspring.append(ks)
        if block_points >= _BLOCK_POINTS or i == n_steps:
            if block_positions:
                add_points(np.concatenate(block_positions), dt * params.mass_per_particle)
            block_positions, block_points = [], 0
            if block_offspring:
                locs = np.concatenate(block_locations)
                ks = np.concatenate(block_offspring)
                net = (ks - 1) * params.mass_per_particle
                for f, total in zip(event_fns, sums):
                    total += f.sum_fn(locs, net)
                if keep_path:
                    ev_locations.append(locs)
                    ev_offspring.append(ks)
                block_locations, block_offspring = [], []
        if math.isinf(extinction_time) and state.count == 0:
            extinction_time = state.time
        if i % snapshot_stride == 0 or i == n_steps:
            snapshot_times.append(state.time)
            snapshots.append(state.positions.copy())
    if functionals and n_steps:
        add_points(state.positions, 0.5 * dt * params.mass_per_particle)

    mass_occ = np.concatenate(([0.0], np.cumsum(0.5 * (masses[1:] + masses[:-1]) * dt)))
    totals = {f.name: Total(total, dict(f.meta)) for f, total in zip(functionals, occupations)}
    totals.update((f.name, Total(total, dict(f.meta))) for f, total in zip(event_fns, sums))
    log = (np.concatenate(ev_locations), np.concatenate(ev_offspring)) if keep_path else None

    return PathRecorder(
        params=params,
        step_times=step_times,
        masses=masses,
        mass_occupation=mass_occ,
        totals=totals,
        snapshot_times=np.asarray(snapshot_times),
        snapshots=snapshots,
        extinction_time=extinction_time,
        final_positions=state.positions,
        step_event_counts=step_event_counts,
        event_log=log,
    )


# ---------------------------------------------------------------------------
# Plain-text persistence: one event per line, and a long-format snapshot CSV.
# ---------------------------------------------------------------------------


def _coordinates(positions: np.ndarray, dim: int):
    """Each position's coordinate columns as text: x in d = 1, x and y in d = 2."""
    return ([fnum(c) for c in row] for row in positions.reshape(len(positions), dim))


def save_events(recorder: PathRecorder, path: str | Path) -> None:
    """Line-oriented event log: 'time location offspring' per line
    ('time x y offspring' in d=2)."""
    coords = _coordinates(recorder.event_locations, recorder.params.dim)
    lines = [" ".join((fnum(t), *xs, str(int(k))))
             for t, xs, k in zip(recorder.event_times, coords, recorder.event_offspring)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def save_snapshots(recorder: PathRecorder, path: str | Path) -> None:
    """Snapshot CSV: header then one row per particle per snapshot time."""
    dim = recorder.params.dim
    lines = ["time,particle,x" if dim == 1 else "time,particle,x,y"]
    for t, pos in zip(recorder.snapshot_times, recorder.snapshots):
        lines.extend(",".join((fnum(t), str(j), *xs))
                     for j, xs in enumerate(_coordinates(pos, dim)))
    Path(path).write_text("\n".join(lines) + "\n")
