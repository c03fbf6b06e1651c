"""Experiment orchestration: deterministic replica execution (optionally on
a worker pool), per-replica record persistence, associative merging, and
CSV emission.

Every experiment kind is one `Kind` entry in `REGISTRY`, the only place that
knows what a kind does.  Its `violations(cfg) -> list[str]` states the
kind's own config rules, which `ExperimentConfig.validate` appends to the
rules every kind shares.  A replica kind names the functionals each particle
replica accumulates, the per-replica `record` that reduces a path to a flat
dict of numbers, and the `finalize(cfg, records, merged) -> (extra, tables)`
that turns the records into its derived results and its tables; merging
re-runs `finalize` on the pooled records.  A run or merge whose every
replica failed has nothing to finalize: it writes records.jsonl and a
degraded report.json with no results and no tables.  A path-free kind
(criterion, holder) supplies one `run(cfg) -> (records, extra, tables)`
instead.  `tables` maps a file name to (schema, header, rows); neither
function writes a file: `_write_report` alone writes every table,
records.jsonl and report.json, and lists them as the report's artifacts.
`check` holds the kind's acceptance thresholds.  `run_experiment`,
`merge_reports`, `check_report` and the CLI subcommands all read this table.

What a replica holds: a path's masses, event counts, positions at t = 0
and t_end, and one (width,) `Total` at t_end per registered functional.
Only the simulate kind stores the path (`simulate(...,
keep_path=kind.saves_paths)`): the event log and the snapshots every
`snapshot_stride` steps, for its path files.  Every other record reads its
functionals at t_end, which needs no path and no table in time: an
occupation functional's trapezoid integral (one weighted point sum per block
of steps) and an event functional's sum over the branch events (one per
block's events) both end as one total, so tanaka (the panel occupations,
the martingale terms at every panel point and the histogram), moments (the
clock histogram and a Tanaka event panel at the pair endpoints, whose odd
half is -M_t(g^x)), timechange (T, the interval occupation and
Z = M_t(psi0)), jumps (the counts above each level) and unbounded2d (the
probe histograms, in d = 1 as the continuous control or in d = 2) read
only totals, each found by `PathRecorder.find_total`, which raises
UsageError naming a functional the kind failed to register.
Keeping the path or not changes no draw.  A tanaka record also carries the
Holder fit of H(t_end, .) over the panel, when the panel is an x_panel
linspace of at least 64 points (`_holder_fit`).

Determinism contract: replica i always uses the stream (seed, replica_start
+ i) regardless of worker count; cap-hit replicas are resampled on stream
(seed, i + attempt * 2^32) (`_replica_stream`) and counted into the
censoring rate.  Merged statistics are reduced from records sorted by
replica index, so rerunning a config (or changing the worker count)
reproduces every numeric output byte for byte.  report.json carries no
timestamps; wall-clock goes to stdout only.

Scheduling: with workers > 1 each replica index is one pool task, handed to
the next free worker.  Replica costs are heavy-tailed (event counts vary
twentyfold at one config), so a slow replica holds up one worker rather
than a whole pre-assigned stripe; which worker ran a replica never shows
in its record, because the stream is keyed by the index.

Artifact formats: per-replica summaries as JSONL records (one per line);
tables as CSV whose first line is a `# schema=... config=<hash>` header (a
table of schema None, criterion.txt, is plain text lines); particle paths as
the line-oriented event file ("time location offspring" per line) and a
long-format snapshot CSV.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ExperimentConfig, canonical_lines, config_hash, parse_config_text
from .continuity import (
    CriterionParams,
    criterion_violations,
    dyadic_lags,
    gs_series,
    holder_exponent,
    holder_field_violations,
    holder_lag_violations,
    probe_functionals,
    read_field,
    unboundedness_probe,
)
from .errors import ConfigError, ResourceLimitError
from .kernels import lambda_violations, resolvent_rate
from .loglaplace import (GridSpec, grid_violations, indicator_violations, smoothed_indicator,
                         solve_mild, solve_violations)
from .measures import FiniteMeasure, dirac, load_measure
from .particles import (
    EventFunctional,
    make_params,
    save_events,
    save_snapshots,
    simulate,
)
from .rng import RngStream
from .textio import fnum
from .stable_path import compute_T, interval_martingale
from .tanaka import (
    PANEL_TOL,
    estimate_local_time,
    exp_kernel_violations,
    ftc_check,
    histogram_functional,
    increment_clock_weights,
    interval_indicator_functional,
    martingale_increments,
    panel_index,
    psi0_event_functional,
    psi0_power_functional,
    tanaka_event_functional,
    tanaka_panel_functional,
    tanaka_panel_terms,
)

__all__ = ["Kind", "REGISTRY", "RunReport", "run_experiment", "merge_reports", "check_report"]

_SCHEMA_VERSION = "v1"

# the tanaka kind's panel linspace when x_panel is empty: min max count
_DEFAULT_PANEL = (-1.0, 1.0, 41)
# the moments kind's clock histogram: lo, hi, bin width (its rules require
# every pair endpoint to be one of its bin edges)
MOMENTS_HISTOGRAM = (-8.0, 8.0, 0.0125)


@dataclass
class RunReport:
    kind: str
    config_hash: str
    config_lines: list[str]
    replicas: int
    merged: dict  # field -> {n, mean, se}
    extra: dict  # kind-specific derived results (z-scores, slopes, oracles)
    censoring_rate: float
    status: str  # ok | degraded
    artifacts: list[str]

    def to_json(self) -> str:
        """Strict JSON: non-finite numbers are written as null."""
        return json.dumps(
            _null_nonfinite(dataclasses.asdict(self)), sort_keys=True, indent=1, allow_nan=False
        )

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport(**json.loads(text))


def _null_nonfinite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_nonfinite(v) for v in value]
    return value


def _all_finite(value) -> bool:
    """False if any number in value is non-finite or was read back as null."""
    if value is None or isinstance(value, float):
        return value is not None and math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_lines(schema: str | None, cfg_hash: str, header: str | None, rows: list[str]) -> str:
    """A table's text: the schema line, the header and the rows, or the rows
    alone when schema is None."""
    head = [] if schema is None else [
        f"# schema=sbmlab.{schema}.{_SCHEMA_VERSION} config={cfg_hash}", header]
    return "\n".join([*head, *rows]) + "\n"


def _initial_measure(cfg: ExperimentConfig) -> FiniteMeasure:
    if cfg.initial_measure is None:
        return dirac(0.0)
    return load_measure(cfg.initial_measure)


def _model_params(cfg: ExperimentConfig):
    return make_params(
        cfg.beta,
        cfg.n_scale,
        cfg.t_end,
        dim=cfg.dim,
        dt=cfg.dt,
        particle_cap=cfg.particle_cap,
        snapshot_stride=cfg.snapshot_stride,
    )


def _phi(cfg: ExperimentConfig):
    return smoothed_indicator(cfg.phi_a, cfg.phi_b, cfg.phi_height, cfg.phi_ramp)


# ---------------------------------------------------------------------------
# Per-replica functionals and records, one of each per replica kind
# ---------------------------------------------------------------------------


def _panel_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The Tanaka panel: the x_panel linspace (default -1 1 41) plus 0 and
    every x_eval, sorted; a point within PANEL_TOL of one already there
    is not added."""
    lo, hi, count = cfg.x_panel if len(cfg.x_panel) == 3 else _DEFAULT_PANEL
    xs = np.linspace(lo, hi, int(count))
    for x in (0.0, *cfg.x_eval):
        if xs.size == 0 or np.abs(xs - x).min() > PANEL_TOL:
            xs = np.append(xs, x)
    return np.sort(xs)


def _tanaka_functionals(cfg: ExperimentConfig):
    xs = _panel_grid(cfg)
    bin_width = min(cfg.bandwidth / 4.0, 0.025)
    # the kernel estimate reads the histogram 5 bandwidths beyond each x_eval;
    # one bin more absorbs the rounding of the last bin edge
    reach = 5.0 * cfg.bandwidth + bin_width
    lo = min(-8.0, min(cfg.x_eval, default=0.0) - reach)
    hi = max(8.0, max(cfg.x_eval, default=0.0) + reach)
    return [
        tanaka_panel_functional((cfg.lam, cfg.lam_alt), xs),
        tanaka_event_functional((cfg.lam, cfg.lam_alt), xs),
        histogram_functional(lo, hi, bin_width),
    ]


def _moment_pairs(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """The moments kind's pairs (c - d/2, c + d/2), grouped by distance in
    the order of `distances`, centers in the order of `pair_centers`."""
    return [(c - d / 2, c + d / 2) for d in cfg.distances for c in cfg.pair_centers]


def _moment_endpoints(cfg: ExperimentConfig) -> list[float]:
    """The distinct endpoints of `_moment_pairs`, sorted: the points of the
    moments kind's event panel."""
    return sorted({x for pair in _moment_pairs(cfg) for x in pair})


def _moments_functionals(cfg: ExperimentConfig):
    return [
        histogram_functional(*MOMENTS_HISTOGRAM),
        tanaka_event_functional(cfg.lam, _moment_endpoints(cfg)),
    ]


def _jumps_functionals(cfg: ExperimentConfig):
    # exact integer counts, so their total does not depend on the blocks
    levels = _jump_levels(cfg)
    return [EventFunctional("jump_counts", lambda y, net: (net[:, None] > levels).sum(axis=0),
                            levels.size, {"kind": "jump_counts"})]


def _timechange_functionals(cfg: ExperimentConfig):
    return [
        psi0_power_functional(cfg.lam, cfg.x1, cfg.x2, cfg.beta),
        interval_indicator_functional(cfg.x1, cfg.x2),
        psi0_event_functional(cfg.lam, cfg.x1, cfg.x2),
    ]


def _record_simulate(cfg: ExperimentConfig, rec, mu0) -> dict:
    out = {
        "final_mass": float(rec.masses[-1]),
        "total_occupation": float(rec.mass_occupation[-1]),
        "event_count": float(rec.event_times.size),
        "extinct": 1.0 if math.isfinite(rec.extinction_time) else 0.0,
        "extinction_time": rec.extinction_time if math.isfinite(rec.extinction_time) else -1.0,
        "max_jump": float(rec.event_net_mass.max()) if rec.event_net_mass.size else 0.0,
    }
    return out


def _record_duality(cfg: ExperimentConfig, rec, mu0) -> dict:
    phi = _phi(cfg)
    pos = rec.final_positions
    mass = rec.params.mass_per_particle
    x_phi = mass * float(np.sum(phi(pos))) if pos.size else 0.0
    return {"laplace_value": math.exp(-x_phi), "final_mass": float(rec.masses[-1])}


def _record_tanaka(cfg: ExperimentConfig, rec, mu0) -> dict:
    # one panel per lambda; every x_eval is a panel point (_panel_grid)
    out = {}
    lt = estimate_local_time(rec, np.asarray(cfg.x_eval), cfg.bandwidth)
    panels = {lam: tanaka_panel_terms(rec, mu0, lam) for lam in (cfg.lam, cfg.lam_alt)}
    for lam, panel in panels.items():
        for x in cfg.x_eval:
            j = panel_index(panel.xs, x)
            out[f"L_tanaka:lam={lam:g}:x={x:g}"] = float(panel.local_time[j])
            out[f"H:lam={lam:g}:x={x:g}"] = float(panel.deriv_field[j])
    for k, x in enumerate(cfg.x_eval):
        out[f"L_kernel:x={x:g}"] = float(lt.values[k])
        out[f"ftc_abs:x={x:g}"] = abs(ftc_check(panels[cfg.lam], x))
    return out | _holder_fit(cfg, panels[cfg.lam])


def _holder_fit(cfg: ExperimentConfig, panel) -> dict:
    """The Holder fit of H at lam over holder_lags: exponent, 95% interval and
    whether that covers beta/(1+beta).  Nothing unless the panel is the
    x_panel linspace itself (_panel_grid added no point) and `holder_exponent`
    accepts the field; it rejects a panel below 64 points before it imports
    scipy."""
    if len(cfg.x_panel) != 3 or panel.xs.size != cfg.x_panel[2]:
        return {}
    lags = tuple(int(v) for v in cfg.holder_lags)
    try:
        fit = holder_exponent(panel.deriv_field, lags, dx=float(panel.xs[1] - panel.xs[0]))
    except ValueError:
        return {}
    tag = f"lam={cfg.lam:g}"
    return {
        f"holder_exponent:{tag}": fit.exponent,
        f"holder_ci_low:{tag}": fit.ci_low,
        f"holder_ci_high:{tag}": fit.ci_high,
        f"holder_covers:{tag}": float(fit.covers(cfg.beta / (1.0 + cfg.beta))),
    }


def _record_moments(cfg: ExperimentConfig, rec, mu0) -> dict:
    # per distance, the means over the pair centers of |dM|^q, log|dM| and
    # the clock T_d of each pair (validate makes every endpoint a bin edge)
    pairs = _moment_pairs(cfg)
    hist = rec.find_total("histogram")
    increments = martingale_increments(rec, cfg.lam, pairs)
    clocks = hist.values @ increment_clock_weights(hist.meta["centers"], cfg.lam, pairs, cfg.beta)
    shape = (len(cfg.distances), len(cfg.pair_centers))
    columns = {
        "moment": np.abs(increments) ** cfg.q_moment,
        "log_increment": np.log(np.abs(increments)),
        "clock": clocks,
        "log_clock": np.log(clocks),
        "clock_moment": clocks ** (cfg.q_moment / (1.0 + cfg.beta)),
    }
    return {
        f"{name}:d={d:g}": float(mean)
        for name, values in columns.items()
        for d, mean in zip(cfg.distances, values.reshape(shape).mean(axis=1))
    }


def _jump_levels(cfg: ExperimentConfig) -> np.ndarray:
    lo, hi, count = cfg.jump_units
    ms = np.sort(np.round(np.logspace(np.log10(lo), np.log10(hi), int(count))))
    # drop rounding duplicates (np.unique would import numpy.ma inside the run)
    ms = ms[np.diff(ms, prepend=-np.inf) > 0]
    return (ms + 0.5) / cfg.n_scale


def _record_jumps(cfg: ExperimentConfig, rec, mu0) -> dict:
    counts = rec.find_total("jump_counts").values
    return {f"count:y={y:g}": float(c) for y, c in zip(_jump_levels(cfg), counts)}


def _record_timechange(cfg: ExperimentConfig, rec, mu0) -> dict:
    t_hat = compute_T(rec, cfg.lam, cfg.x1, cfg.x2)
    z_hat = interval_martingale(rec, cfg.lam, cfg.x1, cfg.x2)
    occ = float(rec.find_total("interval", x1=cfg.x1, x2=cfg.x2).values[0])
    return {"T_hat": t_hat, "Z_hat": z_hat, "interval_occupation": occ}


def _probe_window(cfg: ExperimentConfig):
    """The probe's window: (lo, hi) in d = 1, the square (window, window) in d = 2."""
    return cfg.window if cfg.dim == 1 else (cfg.window, cfg.window)


def _unbounded2d_functionals(cfg: ExperimentConfig):
    return probe_functionals(cfg.dim, cfg.resolutions, _probe_window(cfg))


def _record_unbounded2d(cfg: ExperimentConfig, rec, mu0) -> dict:
    table = unboundedness_probe(rec, cfg.resolutions, _probe_window(cfg))
    return {f"max_density:h={h:g}": v for h, v in table}


def _replica_stream(cfg: ExperimentConfig, index: int, attempt: int) -> RngStream:
    """The stream of replica `index`'s attempt (0 first, then each retry)."""
    return RngStream(cfg.seed, index + (attempt << 32))


def _run_one_replica(cfg: ExperimentConfig, index: int, out_dir: str) -> dict:
    kind = REGISTRY[cfg.kind]
    mu0 = _initial_measure(cfg)
    params = _model_params(cfg)
    functionals = kind.functionals(cfg)
    attempt = 0
    while True:
        try:
            rec = simulate(mu0, params, functionals, _replica_stream(cfg, index, attempt),
                           keep_path=kind.saves_paths)
            break
        except ResourceLimitError:
            attempt += 1
            if attempt > cfg.max_retries:
                return {"_retries": float(attempt), "_failed": 1.0}
    if kind.saves_paths and (
        cfg.save_paths == "all" or (cfg.save_paths == "first" and index == cfg.replica_start)
    ):
        save_events(rec, Path(out_dir) / f"events-replica{index}.txt")
        save_snapshots(rec, Path(out_dir) / f"snapshots-replica{index}.csv")
    record = kind.record(cfg, rec, mu0)
    record["_retries"] = float(attempt)
    return record


def _worker(payload) -> dict:
    cfg_lines, index, out_dir = payload
    return _run_one_replica(parse_config_text("\n".join(cfg_lines)), index, out_dir)


def _run_replicas(cfg: ExperimentConfig, out_dir: str) -> dict[int, dict]:
    indices = range(cfg.replica_start, cfg.replica_start + cfg.replicas)
    if cfg.workers == 1:
        return {i: _run_one_replica(cfg, i, out_dir) for i in indices}
    # imported here: it loads multiprocessing, which a one-worker run never uses
    from concurrent.futures import ProcessPoolExecutor

    # one task per replica: a free worker takes the next index, so a slow
    # replica holds up one worker, not a whole static stripe
    lines = canonical_lines(cfg)
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        results = pool.map(_worker, [(lines, i, out_dir) for i in indices])
        return dict(zip(indices, results))


# ---------------------------------------------------------------------------
# Merging and kind-specific finalization
# ---------------------------------------------------------------------------


def _mean_se(vals) -> tuple[float, float]:
    """Sample mean and its standard error (0 for fewer than two values)."""
    n = len(vals)
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(vals)), se


def _merge_records(records: dict[int, dict]) -> dict:
    keys = sorted({k for r in records.values() for k in r if not k.startswith("_")})
    merged = {}
    for key in keys:
        vals = [r[key] for _, r in sorted(records.items()) if key in r]
        mean, se = _mean_se(vals)
        merged[key] = {"n": len(vals), "mean": mean, "se": se}
    return merged


def _finalize_duality(cfg, records, merged):
    grids = GridSpec(cfg.solver_x_min, cfg.solver_x_max, cfg.solver_nx, cfg.solver_nt)
    sol = solve_mild(_phi(cfg), cfg.t_end, cfg.beta, grids)
    mu0 = _initial_measure(cfg)
    rhs = math.exp(-mu0.integrate(sol.interpolator()))
    lhs = merged["laplace_value"]["mean"]
    se = merged["laplace_value"]["se"]
    z = abs(lhs - rhs) / se if se > 0 else (0.0 if lhs == rhs else math.inf)
    rows = [f"{fnum(lhs)},{fnum(se)},{fnum(rhs)},{fnum(z)},{fnum(sol.residual)}"]
    extra = {"lhs": lhs, "lhs_se": se, "rhs": rhs, "z_score": z, "solver_residual": sol.residual}
    return extra, {"duality.csv": ("duality", "lhs,lhs_se,rhs,z_score,solver_residual", rows)}


def _finalize_tanaka(cfg, records, merged):
    # decomposition table for the first replica, on the full panel, drawn on
    # the attempt its record came from; no rows if that replica failed
    first = records[cfg.replica_start]
    rows = []
    if "_failed" not in first:
        mu0 = _initial_measure(cfg)
        stream = _replica_stream(cfg, cfg.replica_start, int(first["_retries"]))
        rec = simulate(mu0, _model_params(cfg), _tanaka_functionals(cfg), stream,
                       keep_path=False)
        for lam in (cfg.lam, cfg.lam_alt):
            p = tanaka_panel_terms(rec, mu0, lam)
            columns = (p.term_initial, p.term_terminal, p.term_occupation, p.term_martingale,
                       p.local_time, p.recentered, p.deriv_field)
            for j, x in enumerate(p.xs):
                values = (cfg.t_end, x, lam, *(c[j] for c in columns))
                rows.append(",".join(repr(float(v)) for v in values))
    header = ("t,x,lambda,term_initial,term_terminal,term_occupation,term_martingale,"
              "local_time,recentered,deriv_field")
    extra = {}
    for x in cfg.x_eval:
        a = f"L_tanaka:lam={cfg.lam:g}:x={x:g}"
        b = f"L_tanaka:lam={cfg.lam_alt:g}:x={x:g}"
        diffs = [
            records[i][a] - records[i][b]
            for i in sorted(records)
            if a in records[i] and b in records[i]
        ]
        mean, se = _mean_se(diffs)
        extra[f"lambda_diff_z:x={x:g}"] = abs(mean) / se if se > 0 else 0.0
    return extra, {"tanaka_panel.csv": ("tanaka.panel", header, rows)}


def _finalize_moments(cfg, records, merged):
    # slopes against log d of the pooled means: E|dM|^q (reported, not gated:
    # docs/decisions.md), E T_d, E T_d^(q/(1+beta)), E log|dM| and E log T_d
    ds = np.asarray(sorted(cfg.distances))

    def pooled(name: str) -> np.ndarray:
        return np.array([merged[f"{name}:d={d:g}"]["mean"] for d in ds])

    def slope(values: np.ndarray) -> float:
        return float(np.polyfit(np.log(ds), values, 1)[0])

    means = pooled("moment")
    ses = np.array([merged[f"moment:d={d:g}"]["se"] for d in ds])
    rows = [f"{fnum(d)},{fnum(m)},{fnum(s)}" for d, m, s in zip(ds, means, ses)]
    extra = {
        "slope": slope(np.log(means)),
        "clock_slope": slope(np.log(pooled("clock"))),
        "moment_prediction": slope(np.log(pooled("clock_moment"))),
        "log_slope": slope(pooled("log_increment")),
        "log_prediction": slope(pooled("log_clock")) / (1.0 + cfg.beta),
        "q": cfg.q_moment,
    }
    return extra, {"moments.csv": ("moments", "distance,moment,se", rows)}


def _finalize_jumps(cfg, records, merged):
    mu0 = _initial_measure(cfg)
    ys = _jump_levels(cfg)
    params = _model_params(cfg)
    rows, zs = [], []
    means = []
    for y in ys:
        m = merged[f"count:y={y:g}"]
        oracle = (
            params.c_beta
            * cfg.t_end
            * mu0.total_mass
            * y ** (-1.0 - cfg.beta)
            / (1.0 + cfg.beta)
        )
        z = (m["mean"] - oracle) / m["se"] if m["se"] > 0 else math.inf
        zs.append(z)
        means.append(m["mean"])
        rows.append(f"{fnum(y)},{fnum(m['mean'])},{fnum(m['se'])},{fnum(oracle)},{fnum(z)}")
    means_arr = np.asarray(means)
    pos = means_arr > 0
    if pos.sum() >= 2:
        slope = float(np.polyfit(np.log(np.asarray(ys)[pos]), np.log(means_arr[pos]), 1)[0])
    else:
        slope = math.nan
    extra = {"levels": [float(y) for y in ys], "z_scores": [float(z) for z in zs], "slope": slope}
    return extra, {"jumps.csv": ("jumps", "y,mean_count,se,compensator_oracle,z", rows)}


def _finalize_timechange(cfg, records, merged):
    z_vals = np.array([records[i]["Z_hat"] for i in sorted(records) if "Z_hat" in records[i]])
    t_vals = np.array([records[i]["T_hat"] for i in sorted(records) if "T_hat" in records[i]])
    occ = np.array(
        [records[i]["interval_occupation"] for i in sorted(records) if "T_hat" in records[i]]
    )
    power = 1.0 + cfg.beta
    rows = []
    zs, pzs = [], []
    for theta in cfg.theta_grid:
        a = np.exp(-theta * z_vals)
        b = np.exp(theta**power * t_vals)
        c = a * np.exp(-(theta**power) * t_vals)
        lhs, lhs_se = _mean_se(a)
        rhs, rhs_se = _mean_se(b)
        prod, pse = _mean_se(c)
        dse = _mean_se(a - b)[1]
        z = abs(lhs - rhs) / dse if dse > 0 else 0.0
        pz = abs(prod - 1.0) / pse if pse > 0 else 0.0
        zs.append(z)
        pzs.append(pz)
        rows.append(
            f"{fnum(theta)},{fnum(lhs)},{fnum(rhs)},{fnum(lhs_se)},{fnum(rhs_se)},{fnum(z)},{fnum(prod)},{fnum(pse)},{fnum(pz)}"
        )
    bound = 2.0**power * occ
    violations = int(np.sum(t_vals > bound * (1 + 1e-12) + 1e-15))
    extra = {
        "theta_grid": list(cfg.theta_grid),
        "z_scores": [float(z) for z in zs],
        "product_z_scores": [float(z) for z in pzs],
        "t_bound_violations": violations,
    }
    header = "theta,lhs,rhs,se_lhs,se_rhs,z,product_mean,product_se,product_z"
    return extra, {"timechange.csv": ("timechange", header, rows)}


def _finalize_unbounded2d(cfg, records, merged):
    rows = []
    medians = {}
    for h in cfg.resolutions:
        key = f"max_density:h={h:g}"
        vals = [records[i][key] for i in sorted(records) if key in records[i]]
        medians[h] = float(np.median(vals))
        rows.append(f"{fnum(h)},{fnum(medians[h])},{fnum(merged[key]['mean'])},{fnum(merged[key]['se'])}")
    hs = sorted(cfg.resolutions, reverse=True)  # coarse -> fine
    med_seq = [medians[h] for h in hs]
    increasing = all(b > a for a, b in zip(med_seq, med_seq[1:]))
    ratio = med_seq[-1] / med_seq[0] if med_seq[0] > 0 else math.inf
    extra = {
        "median_max_density": {f"{h:g}": medians[h] for h in hs},
        "strictly_increasing": increasing,
        "finest_to_coarsest_ratio": ratio,
    }
    header = "bin_width,median_max_density,mean,se"
    return extra, {"unbounded_probe.csv": ("unbounded2d", header, rows)}


def _finalize_simulate(cfg, records, merged):
    rows = []
    for i in sorted(records):
        r = records[i]
        if "_failed" in r:
            continue
        rows.append(
            f"{i},{fnum(r['final_mass'])},{fnum(r['total_occupation'])},"
            f"{int(r['event_count'])},{fnum(r['extinction_time'])}"
        )
    header = "replica,final_mass,total_occupation,event_count,extinction_time"
    return {}, {"simulate_summary.csv": ("simulate", header, rows)}


# --- kinds without particle replicas ---------------------------------------


def _run_criterion(cfg: ExperimentConfig):
    params = CriterionParams(
        beta=cfg.beta,
        gamma=cfg.gamma,
        q=cfg.q_criterion,
        k_window=cfg.k_window,
        c_free=cfg.c_free,
        n_max=cfg.n_max,
    )
    rep = gs_series(params, r_grid=cfg.r_grid)
    block = [
        f"beta = {fnum(cfg.beta)}",
        f"gamma = {fnum(cfg.gamma)}",
        f"q = {fnum(cfg.q_criterion)}",
        f"k_window = {fnum(cfg.k_window)}",
        f"c_free = {fnum(cfg.c_free)}",
        f"g_closed = {fnum(rep.g_closed)}",
        f"g_partial = {fnum(rep.g_partial)}",
        f"g_tail_bound = {fnum(rep.g_tail_bound)}",
        f"q_a_value = {fnum(rep.q_a.value)}",
        f"q_a_convergent = {rep.q_a.convergent}",
        f"q_b_value = {fnum(rep.q_b.value)}",
        f"q_b_convergent = {rep.q_b.convergent}",
        f"q_b_certified = {rep.q_b.certified}",
        f"q_c_value = {fnum(rep.q_c.value)}",
        f"q_c_convergent = {rep.q_c.convergent}",
        f"q_c_certified = {rep.q_c.certified}",
        f"q_total = {fnum(rep.q_total)}",
        f"q_trend_decreasing = {rep.q_trend_decreasing}",
    ]
    rows = [f"{fnum(r)},{fnum(v)}" for r, v in zip(rep.r_grid, rep.q_trend)]
    extra = {
        "g_closed": rep.g_closed,
        "q_convergent": [rep.q_a.convergent, rep.q_b.convergent, rep.q_c.convergent],
        "q_trend_decreasing": rep.q_trend_decreasing,
        "q_trend_final": float(rep.q_trend[-1]),
    }
    tables = {
        "criterion.txt": (None, None, block),
        "criterion_rgrid.csv": ("criterion.rgrid", "r,q_total", rows),
    }
    return {0: {"q_total": rep.q_total, "_retries": 0.0}}, extra, tables


_HOLDER_FIELD_SIZE = 4096
# the holder kind's synthetic fields by holder_synthetic value: (x, gen) ->
# (values, dx) on the _HOLDER_FIELD_SIZE points x of [0, 1]
SYNTHETIC_FIELDS = {
    "linear": lambda x, gen: (x, 1.0 / (x.size - 1)),
    "sqrt_cusp": lambda x, gen: (np.abs(x - 0.5) ** 0.5, 1.0 / (x.size - 1)),
    "brownian": lambda x, gen: (np.cumsum(gen.normal(0.0, math.sqrt(1.0 / x.size), x.size)),
                                1.0 / x.size),
}


def _holder_field(cfg: ExperimentConfig):
    if cfg.holder_input is not None:
        return read_field(cfg.holder_input), 1.0
    x = np.linspace(0.0, 1.0, _HOLDER_FIELD_SIZE)
    return SYNTHETIC_FIELDS[cfg.holder_synthetic](x, RngStream(cfg.seed, 0).gen)


def _run_holder(cfg: ExperimentConfig):
    field_vals, dx = _holder_field(cfg)
    lo, hi = (int(v) for v in cfg.holder_lags)
    fit = holder_exponent(field_vals, (lo, hi), dx=dx)
    rows = [f"{fnum(s)},{fnum(w)}" for s, w in zip(fit.scales, fit.oscillations)]
    extra = {"exponent": fit.exponent, "ci_low": fit.ci_low, "ci_high": fit.ci_high}
    records = {0: {"exponent": fit.exponent, "_retries": 0.0}}
    return records, extra, {"holder.csv": ("holder", "scale,oscillation", rows)}


# --- acceptance thresholds (check_report and the CLI --check flag) ---------


def _exceeds(value, limit: float) -> bool:
    """True unless value is a number with |value| <= limit: a null headline
    (a non-finite value that report.json wrote as null) or a NaN fails."""
    return value is None or not abs(value) <= limit


def _fmt(value, spec: str = ".2f") -> str:
    return "null" if value is None else format(value, spec)


def _check_duality(report: RunReport) -> list[str]:
    z = report.extra.get("z_score", math.inf)
    return [f"duality z-score {_fmt(z)} > 3"] if _exceeds(z, 3.0) else []


def _check_tanaka(report: RunReport) -> list[str]:
    return [
        f"{key} = {_fmt(val)} > 3"
        for key, val in report.extra.items()
        if key.startswith("lambda_diff_z") and _exceeds(val, 3.0)
    ]


def _check_jumps(report: RunReport) -> list[str]:
    fails = []
    e = report.extra
    if any(_exceeds(z, 3.0) for z in e.get("z_scores", [])):
        fails.append(f"jump compensator z-scores {e['z_scores']} exceed 3")
    cfg = parse_config_text("\n".join(report.config_lines))
    target = -(1.0 + cfg.beta)
    slope = e.get("slope", math.nan)
    if slope is None or _exceeds(slope - target, 0.1):
        fails.append(f"jump tail slope {_fmt(slope, '.3f')} outside {target} +- 0.1")
    return fails


def _check_moments(report: RunReport) -> list[str]:
    # the clock follows the linear law and E log|dM| the clock's slope over
    # 1+beta (docs/decisions.md); the slope of E|dM|^q is not gated
    fails = []
    e = report.extra
    clock = e.get("clock_slope")
    if clock is None or not clock >= 0.85:
        fails.append(f"clock slope {_fmt(clock, '.3f')} < 0.85")
    log_slope, prediction = e.get("log_slope"), e.get("log_prediction")
    if log_slope is None or prediction is None or _exceeds(log_slope - prediction, 0.15):
        fails.append(f"E log|dM| slope {_fmt(log_slope, '.3f')} is not within 0.15 of "
                     f"the clock's {_fmt(prediction, '.3f')}")
    return fails


def _check_timechange(report: RunReport) -> list[str]:
    fails = []
    e = report.extra
    if any(_exceeds(z, 3.0) for z in e.get("z_scores", [])):
        fails.append(f"timechange z-scores {e['z_scores']} exceed 3")
    if e.get("t_bound_violations", 0) > 0:
        fails.append(f"T-bound violated on {e['t_bound_violations']} replicas")
    return fails


def _check_criterion(report: RunReport) -> list[str]:
    if report.extra.get("q_trend_decreasing", False):
        return []
    return ["Q(0, r) trend is not strictly decreasing"]


# --- config rules (ExperimentConfig.validate appends the kind's own) -------


def _whole(value: float, least: int) -> bool:
    return float(value).is_integer() and value >= least


def _is_range(values: tuple[float, ...]) -> bool:
    """Two finite values lo < hi."""
    return len(values) == 2 and all(map(math.isfinite, values)) and values[0] < values[1]


def _d1_violations(cfg: ExperimentConfig) -> list[str]:
    # the recorders that these kinds read (tanaka, stable_path) and the
    # duality solver (loglaplace) are defined in d = 1 only
    return [] if cfg.dim == 1 else [
        f"dim must be 1 for kind {cfg.kind} (it is defined in d = 1 only), got {cfg.dim}"]


def _holder_lags_violations(cfg: ExperimentConfig) -> list[str]:
    """The lags lo hi that the holder kind and the tanaka kind's fit of H unpack."""
    lags = cfg.holder_lags
    if len(lags) == 2 and all(_whole(lag, 1) for lag in lags) and len(dyadic_lags(*lags)) >= 3:
        return []
    return [f"holder_lags must be two whole lags lo hi >= 1 with at least three "
            f"powers of two between them, got {lags}"]


def _duality_violations(cfg: ExperimentConfig) -> list[str]:
    return [
        *_d1_violations(cfg),
        *grid_violations(cfg.solver_x_min, cfg.solver_x_max, cfg.solver_nx, cfg.solver_nt,
                         prefix="solver_"),
        *indicator_violations(cfg.phi_a, cfg.phi_b, cfg.phi_height, cfg.phi_ramp, prefix="phi_"),
        *solve_violations(cfg.t_end, cfg.beta),
    ]


def _tanaka_violations(cfg: ExperimentConfig) -> list[str]:
    errs = _d1_violations(cfg)
    if cfg.lam_alt == cfg.lam:
        errs.append(f"lam_alt must differ from lam for kind tanaka, both are {cfg.lam}")
    if cfg.x_panel and not (
        len(cfg.x_panel) == 3 and _is_range(cfg.x_panel[:2]) and _whole(cfg.x_panel[2], 2)
    ):
        errs.append(f"x_panel must be empty (the panel -1 1 41) or min max count, with "
                    f"finite min < max and a whole count >= 2, got {cfg.x_panel}")
    elif not lambda_violations(cfg.lam) + lambda_violations(cfg.lam_alt):
        # the panel's kernel sums at both lambdas, blamed on x_panel when the
        # ends of its linspace and 0 (all the rule reads) break it already
        rates = [resolvent_rate(lam) for lam in (cfg.lam, cfg.lam_alt)]
        if panel := exp_kernel_violations(rates, _panel_grid(cfg)):
            lo, hi = (cfg.x_panel or _DEFAULT_PANEL)[:2]
            if linspace := exp_kernel_violations(rates, sorted((lo, hi, 0.0))):
                errs.extend(f"x_panel: {v}" for v in linspace)
            else:
                errs.extend(f"x_eval: {v}" for v in panel)
    if not (cfg.x_eval and all(map(math.isfinite, cfg.x_eval))):
        errs.append(f"x_eval must be one or more finite values, got {cfg.x_eval}")
    return errs + _holder_lags_violations(cfg)


def _moments_violations(cfg: ExperimentConfig) -> list[str]:
    errs = _d1_violations(cfg)
    if not 1.0 < cfg.q_moment < 1.0 + cfg.beta:
        errs.append(f"q_moment must lie in (1, 1+beta) = (1, {1 + cfg.beta}), "
                    f"got {cfg.q_moment}")
    if not all(d > 0 for d in cfg.distances):
        errs.append(f"distances must all be > 0, got {cfg.distances}")
    if len(set(cfg.distances)) != len(cfg.distances) or len(cfg.distances) < 2:
        errs.append(f"distances must be two or more distinct values (the kind fits "
                    f"slopes against log d), got {cfg.distances}")
    if not cfg.pair_centers:
        errs.append("pair_centers must not be empty")
    edges = histogram_functional(*MOMENTS_HISTOGRAM).meta["edges"]
    off = [x for x in _moment_endpoints(cfg) if abs(edges - x).min() > 1e-9]
    if off:
        errs.append(f"pair endpoints c +- d/2 of pair_centers and distances must be edges "
                    f"of the clock histogram (lo, hi, bin width) = {MOMENTS_HISTOGRAM}; "
                    f"these are not: {', '.join(f'{x:g}' for x in off)}")
    if not lambda_violations(cfg.lam):  # its event panel's kernel sums
        errs.extend(f"lam: {v}" for v in exp_kernel_violations(
            [resolvent_rate(cfg.lam)], _moment_endpoints(cfg)))
    return errs


def _jumps_violations(cfg: ExperimentConfig) -> list[str]:
    units = cfg.jump_units
    if len(units) == 3 and all(0 < u < math.inf for u in units[:2]) and _whole(units[2], 1):
        return []
    return [f"jump_units must be min max count, with finite min, max > 0 and a "
            f"whole count >= 1, got {units}"]


def _timechange_violations(cfg: ExperimentConfig) -> list[str]:
    errs = _d1_violations(cfg)
    if not cfg.x1 <= cfg.x2:
        errs.append(f"need x1 <= x2, got ({cfg.x1}, {cfg.x2})")
    # the finalizer's exp(theta^(1+beta) T) is complex for theta < 0
    if not (cfg.theta_grid and all(0 <= th < math.inf for th in cfg.theta_grid)):
        errs.append(f"theta_grid must be one or more finite values >= 0, "
                    f"got {cfg.theta_grid}")
    return errs


def _unbounded2d_violations(cfg: ExperimentConfig) -> list[str]:
    errs = []
    if not _is_range(cfg.window):
        errs.append(f"window must be two finite values lo < hi, got {cfg.window}")
    # a probe histogram's name prints its width with 6 significant digits
    hs = cfg.resolutions
    if not (hs and all(0 < h < math.inf for h in hs) and len({f"{h:g}" for h in hs}) == len(hs)):
        errs.append(f"resolutions must be one or more finite bin widths > 0, distinct "
                    f"to 6 significant digits, got {hs}")
    return errs


def _holder_violations(cfg: ExperimentConfig) -> list[str]:
    errs = _holder_lags_violations(cfg)
    if cfg.holder_input is None:
        if not errs:  # the synthetic field
            errs.extend(f"holder_lags: {v}"
                        for v in holder_lag_violations(_HOLDER_FIELD_SIZE, cfg.holder_lags))
    elif Path(cfg.holder_input).exists():  # validate() reports a missing file
        try:
            values = read_field(cfg.holder_input)
        except (OSError, ValueError) as exc:
            errs.append(f"holder_input must be a file of comma-separated numbers: {exc}")
        else:
            lags = cfg.holder_lags if len(cfg.holder_lags) == 2 else (1, math.inf)
            errs.extend(f"holder_input {cfg.holder_input}: {v}"
                        for v in holder_field_violations(values, lags))
    if cfg.holder_synthetic not in SYNTHETIC_FIELDS:
        errs.append(f"holder_synthetic must be one of {tuple(SYNTHETIC_FIELDS)}, "
                    f"got {cfg.holder_synthetic!r}")
    return errs


# --- the registry -----------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What one experiment kind does (see the module docstring).  Signatures:
    violations(cfg) -> list[str], functionals(cfg), record(cfg, rec, mu0) ->
    dict, finalize(cfg, records, merged) -> (extra, tables), run(cfg) ->
    (records, extra, tables), check(report) -> fails; tables maps a file
    name to (schema, header, rows), and neither finalize nor run writes a
    file.  saves_paths also makes its replicas keep the path (`simulate`'s
    keep_path)."""

    record: Callable | None = None
    finalize: Callable | None = None
    run: Callable | None = None
    violations: Callable = lambda cfg: []
    functionals: Callable = lambda cfg: []
    check: Callable = lambda report: []
    saves_paths: bool = False  # writes the path files that save_paths asks for


REGISTRY: dict[str, Kind] = {
    # the path files hold the event log and the snapshots
    "simulate": Kind(record=_record_simulate, finalize=_finalize_simulate, saves_paths=True),
    "duality": Kind(record=_record_duality, finalize=_finalize_duality,
                    violations=_duality_violations, check=_check_duality),
    "tanaka": Kind(
        record=_record_tanaka,
        finalize=_finalize_tanaka,
        violations=_tanaka_violations,
        functionals=_tanaka_functionals,
        check=_check_tanaka,
    ),
    "moments": Kind(
        record=_record_moments,
        finalize=_finalize_moments,
        violations=_moments_violations,
        functionals=_moments_functionals,
        check=_check_moments,
    ),
    "jumps": Kind(record=_record_jumps, finalize=_finalize_jumps, violations=_jumps_violations,
                  functionals=_jumps_functionals, check=_check_jumps),
    "timechange": Kind(
        record=_record_timechange,
        finalize=_finalize_timechange,
        violations=_timechange_violations,
        functionals=_timechange_functionals,
        check=_check_timechange,
    ),
    "criterion": Kind(run=_run_criterion, check=_check_criterion, violations=lambda cfg:
                      criterion_violations(cfg.beta, cfg.k_window, cfg.n_max, cfg.r_grid)),
    "holder": Kind(run=_run_holder, violations=_holder_violations),
    "unbounded2d": Kind(record=_record_unbounded2d, finalize=_finalize_unbounded2d,
                        violations=_unbounded2d_violations, functionals=_unbounded2d_functionals),
}


def _write_report(kind, cfg_hash, config_lines, records, merged, extra, tables,
                  out_dir) -> RunReport:
    """Every file of one run or merge: the tables, records.jsonl and
    report.json, whose artifacts list them all.  Both JSON files are strict
    (a non-finite number is written as null); status is 'degraded' when the
    censoring rate exceeds 5% or a reported number is non-finite."""
    for name, (schema, header, rows) in tables.items():
        _atomic_write(out_dir / name, _csv_lines(schema, cfg_hash, header, rows))
    retries = sum(r.get("_retries", 0.0) for r in records.values())
    attempts = len(records) + retries
    censoring_rate = retries / attempts if attempts else 0.0
    record_lines = [
        json.dumps(_null_nonfinite({"replica": i, **records[i]}), sort_keys=True, allow_nan=False)
        for i in sorted(records)
    ]
    _atomic_write(out_dir / "records.jsonl", "\n".join(record_lines) + "\n")
    artifacts = sorted(["records.jsonl", "report.json", *tables])
    finite = _all_finite(merged) and _all_finite(extra)
    report = RunReport(
        kind=kind,
        config_hash=cfg_hash,
        config_lines=config_lines,
        replicas=len(records),
        merged=merged,
        extra=extra,
        censoring_rate=censoring_rate,
        status="degraded" if censoring_rate > 0.05 or not finite else "ok",
        artifacts=artifacts,
    )
    _atomic_write(out_dir / "report.json", report.to_json() + "\n")
    return report


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one experiment end to end; deterministic given the config.

    Returns the RunReport and writes records.jsonl, report.json, and the
    kind-specific CSV artifacts into cfg.out.  Resource-cap errors surface
    in the censoring rate (status 'degraded' above 5%), never abort the
    batch.
    """
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg)
    t0 = time.monotonic()

    kind = REGISTRY[cfg.kind]
    if kind.run is None:
        records = _run_replicas(cfg, str(out_dir))
        merged = _merge_records(records)
        # an empty merge: every replica failed, and there is nothing to finalize
        extra, tables = kind.finalize(cfg, records, merged) if merged else ({}, {})
    else:
        records, extra, tables = kind.run(cfg)
        merged = _merge_records(records)
    report = _write_report(
        cfg.kind, cfg_hash, canonical_lines(cfg), records, merged, extra, tables, out_dir
    )
    print(f"[sbmlab] {cfg.kind}: {len(records)} replicas in {time.monotonic() - t0:.1f}s "
          f"(status {report.status}, hash {cfg_hash})")
    return report


def merge_reports(paths: list[str | Path], out: str | Path) -> RunReport:
    """Pool reports produced from the same config hash (differing only in
    replica ranges); statistics are recomputed from the union of records,
    making the merge associative and commutative."""
    if not paths:
        raise ConfigError(["merge needs at least one report directory"])
    reports = []
    all_records: dict[int, dict] = {}
    for p in paths:
        p = Path(p)
        rep = RunReport.from_json((p / "report.json").read_text())
        reports.append(rep)
        for line in (p / "records.jsonl").read_text().splitlines():
            row = json.loads(line)
            idx = int(row.pop("replica"))
            if idx in all_records:
                raise ConfigError([f"replica {idx} appears in more than one report"])
            # records.jsonl writes a non-finite value as null
            all_records[idx] = {k: math.nan if v is None else v for k, v in row.items()}
    hashes = {r.config_hash for r in reports}
    if len(hashes) != 1:
        raise ConfigError([f"config hashes differ: {sorted(hashes)}"])
    cfg = parse_config_text("\n".join(reports[0].config_lines))
    cfg.replicas = len(all_records)
    cfg.replica_start = min(all_records) if all_records else 0
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = _merge_records(all_records)
    cfg_hash = reports[0].config_hash
    kind = REGISTRY[cfg.kind]
    if kind.run is None:
        extra, tables = kind.finalize(cfg, all_records, merged) if merged else ({}, {})
    else:  # a path-free kind: the first report's results, and no tables
        extra, tables = dict(reports[0].extra), {}
    return _write_report(
        cfg.kind, cfg_hash, reports[0].config_lines, all_records, merged, extra, tables, out_dir
    )


def check_report(report: RunReport) -> list[str]:
    """Acceptance-style threshold checks per kind (used by the CLI --check
    flag); returns the list of failures, empty when all pass."""
    return REGISTRY[report.kind].check(report)
