"""Experiment orchestration: deterministic replica execution (optionally on
a worker pool), per-replica record persistence, associative merging, and
CSV emission.

Every experiment kind is one `Kind` entry in `REGISTRY`, the only place that
knows what a kind does.  A replica kind names the functionals each particle
replica accumulates, the per-replica `record` that reduces a path to a flat
dict of numbers, and the `finalize` that turns the records into its tables
and derived results; merging re-runs `finalize` on the pooled records.  A
path-free kind (stabletails, criterion, holder) supplies one `run` function
instead.  `check` holds the kind's acceptance thresholds.  `run_experiment`,
`merge_reports`, `check_report` and the CLI subcommands all read this table.

What a replica holds: a path's masses, event counts, positions at t = 0
and t_end, and one (width,) `Total` at t_end per registered functional.
Only the simulate kind stores the path (`simulate(...,
keep_path=kind.saves_paths)`): the event log and the snapshots every
`snapshot_stride` steps, for its path files.  Every other record reads its
functionals at t_end, which needs no path and no table in time: an
occupation functional's trapezoid integral (one weighted point sum per block
of steps) and an event functional's sum over the branch events (one per
block's events) both end as one total, so tanaka (the panel
occupations, the martingale terms at every panel point and the histogram),
moments (the clock histogram and M_t(g^x) at every pair endpoint),
timechange (T, the interval occupation and Z = M_t(psi0)), jumps (the
counts above each level) and unbounded2d (the probe histograms, in d = 1
as the continuous control or in d = 2) read only totals.  Keeping the path
or not changes no draw.  A tanaka record also carries the Holder fit of
H(t_end, .) over the panel, when the panel is an x_panel linspace of at
least 64 points (`_holder_fit`).

Determinism contract: replica i always uses the stream (seed, replica_start
+ i) regardless of worker count; cap-hit replicas are resampled on stream
(seed, i + attempt * 2^32) and counted into the censoring rate.  Merged
statistics are reduced from records sorted by replica index, so rerunning a
config (or changing the worker count) reproduces every numeric output
byte for byte.  report.json carries no timestamps; wall-clock goes to
stdout only.

Scheduling: with workers > 1 each replica index is one pool task, handed to
the next free worker.  Replica costs are heavy-tailed (event counts vary
twentyfold at one config), so a slow replica holds up one worker rather
than a whole pre-assigned stripe; which worker ran a replica never shows
in its record, because the stream is keyed by the index.

Artifact formats: per-replica summaries as JSONL records (one per line);
tables as CSV whose first line is a `# schema=... config=<hash>` header;
particle paths as the line-oriented event file ("time location offspring"
per line) and a long-format snapshot CSV.
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

from .config import (
    HOLDER_SYNTHETICS,
    KINDS,
    MOMENTS_HISTOGRAM,
    ExperimentConfig,
    canonical_lines,
    config_hash,
    parse_config_text,
)
from .continuity import (
    CriterionParams,
    gs_series,
    holder_exponent,
    probe_functionals,
    read_field,
    unboundedness_probe,
)
from .errors import ConfigError, ResourceLimitError
from .loglaplace import GridSpec, smoothed_indicator, solve_mild
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
from .stable_path import (
    calibrate_smalljump_bound,
    compute_T,
    inf_tail_oracle,
    inf_tail_probability,
    interval_martingale,
)
from .tanaka import (
    estimate_local_time,
    ftc_check,
    histogram_functional,
    increment_clock_weights,
    increment_event_functional,
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


def _csv_lines(schema: str, cfg_hash: str, header: str, rows: list[str]) -> str:
    head = f"# schema=sbmlab.{schema}.{_SCHEMA_VERSION} config={cfg_hash}"
    return "\n".join([head, header, *rows]) + "\n"


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


def _tanaka_functionals(cfg: ExperimentConfig):
    xs = cfg.panel_grid()
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


def _moments_functionals(cfg: ExperimentConfig):
    return [
        histogram_functional(*MOMENTS_HISTOGRAM),
        increment_event_functional(cfg.lam, cfg.moment_pairs()),
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
    # one panel per lambda; every x_eval is a panel point (panel_grid)
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
    x_panel linspace itself (panel_grid added no point) and `holder_exponent`
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
    pairs = cfg.moment_pairs()
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


def _run_one_replica(cfg: ExperimentConfig, index: int, out_dir: str) -> dict:
    kind = REGISTRY[cfg.kind]
    mu0 = _initial_measure(cfg)
    params = _model_params(cfg)
    functionals = kind.functionals(cfg)
    attempt = 0
    while True:
        stream = RngStream(cfg.seed, index + (attempt << 32))
        try:
            rec = simulate(mu0, params, functionals, stream, keep_path=kind.saves_paths)
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


def _finalize_duality(cfg, records, merged, out_dir, cfg_hash) -> dict:
    grids = GridSpec(cfg.solver_x_min, cfg.solver_x_max, cfg.solver_nx, cfg.solver_nt)
    sol = solve_mild(_phi(cfg), cfg.t_end, cfg.beta, grids)
    mu0 = _initial_measure(cfg)
    rhs = math.exp(-mu0.integrate(sol.interpolator()))
    lhs = merged["laplace_value"]["mean"]
    se = merged["laplace_value"]["se"]
    z = abs(lhs - rhs) / se if se > 0 else (0.0 if lhs == rhs else math.inf)
    rows = [f"{fnum(lhs)},{fnum(se)},{fnum(rhs)},{fnum(z)},{fnum(sol.residual)}"]
    _atomic_write(
        Path(out_dir) / "duality.csv",
        _csv_lines("duality", cfg_hash, "lhs,lhs_se,rhs,z_score,solver_residual", rows),
    )
    return {"lhs": lhs, "lhs_se": se, "rhs": rhs, "z_score": z,
            "solver_residual": sol.residual, "artifact_tables": ["duality.csv"]}


def _finalize_tanaka(cfg, records, merged, out_dir, cfg_hash) -> dict:
    # decomposition table for the first recorded replica, on the full panel
    mu0 = _initial_measure(cfg)
    rec = simulate(mu0, _model_params(cfg), _tanaka_functionals(cfg),
                   RngStream(cfg.seed, cfg.replica_start), keep_path=False)
    rows = []
    for lam in (cfg.lam, cfg.lam_alt):
        p = tanaka_panel_terms(rec, mu0, lam)
        columns = (p.term_initial, p.term_terminal, p.term_occupation, p.term_martingale,
                   p.local_time, p.recentered, p.deriv_field)
        for j, x in enumerate(p.xs):
            values = (cfg.t_end, x, lam, *(c[j] for c in columns))
            rows.append(",".join(repr(float(v)) for v in values))
    _atomic_write(
        Path(out_dir) / "tanaka_panel.csv",
        _csv_lines(
            "tanaka.panel",
            cfg_hash,
            "t,x,lambda,term_initial,term_terminal,term_occupation,term_martingale,"
            "local_time,recentered,deriv_field",
            rows,
        ),
    )
    extra = {"artifact_tables": ["tanaka_panel.csv"]}
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
    return extra


def _finalize_moments(cfg, records, merged, out_dir, cfg_hash) -> dict:
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
    _atomic_write(
        Path(out_dir) / "moments.csv",
        _csv_lines("moments", cfg_hash, "distance,moment,se", rows),
    )
    return {
        "slope": slope(np.log(means)),
        "clock_slope": slope(np.log(pooled("clock"))),
        "moment_prediction": slope(np.log(pooled("clock_moment"))),
        "log_slope": slope(pooled("log_increment")),
        "log_prediction": slope(pooled("log_clock")) / (1.0 + cfg.beta),
        "q": cfg.q_moment,
        "artifact_tables": ["moments.csv"],
    }


def _finalize_jumps(cfg, records, merged, out_dir, cfg_hash) -> dict:
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
    _atomic_write(
        Path(out_dir) / "jumps.csv",
        _csv_lines("jumps", cfg_hash, "y,mean_count,se,compensator_oracle,z", rows),
    )
    return {
        "levels": [float(y) for y in ys],
        "z_scores": [float(z) for z in zs],
        "slope": slope,
        "artifact_tables": ["jumps.csv"],
    }


def _finalize_timechange(cfg, records, merged, out_dir, cfg_hash) -> dict:
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
    _atomic_write(
        Path(out_dir) / "timechange.csv",
        _csv_lines(
            "timechange",
            cfg_hash,
            "theta,lhs,rhs,se_lhs,se_rhs,z,product_mean,product_se,product_z",
            rows,
        ),
    )
    return {
        "theta_grid": list(cfg.theta_grid),
        "z_scores": [float(z) for z in zs],
        "product_z_scores": [float(z) for z in pzs],
        "t_bound_violations": violations,
        "artifact_tables": ["timechange.csv"],
    }


def _finalize_unbounded2d(cfg, records, merged, out_dir, cfg_hash) -> dict:
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
    _atomic_write(
        Path(out_dir) / "unbounded_probe.csv",
        _csv_lines("unbounded2d", cfg_hash, "bin_width,median_max_density,mean,se", rows),
    )
    return {
        "median_max_density": {f"{h:g}": medians[h] for h in hs},
        "strictly_increasing": increasing,
        "finest_to_coarsest_ratio": ratio,
        "artifact_tables": ["unbounded_probe.csv"],
    }


def _finalize_simulate(cfg, records, merged, out_dir, cfg_hash) -> dict:
    rows = []
    for i in sorted(records):
        r = records[i]
        if "_failed" in r:
            continue
        rows.append(
            f"{i},{fnum(r['final_mass'])},{fnum(r['total_occupation'])},"
            f"{int(r['event_count'])},{fnum(r['extinction_time'])}"
        )
    _atomic_write(
        Path(out_dir) / "simulate_summary.csv",
        _csv_lines(
            "simulate",
            cfg_hash,
            "replica,final_mass,total_occupation,event_count,extinction_time",
            rows,
        ),
    )
    return {"artifact_tables": ["simulate_summary.csv"]}


# --- kinds without particle replicas ---------------------------------------


def _run_stabletails(cfg: ExperimentConfig, out_dir, cfg_hash):
    stream = RngStream(cfg.seed, 0)
    xs = np.asarray(cfg.inf_x_values)
    probs = np.array(
        [
            inf_tail_probability(cfg.beta, cfg.t_end, x, cfg.replicas, stream, cfg.path_steps)
            for x in xs
        ]
    )
    oracle = np.asarray(inf_tail_oracle(cfg.beta, cfg.t_end, xs))
    resolved = (probs > 20.0 / cfg.replicas) & (probs < 0.8)
    if resolved.sum() >= 2:
        mc_slope = float(
            np.polyfit(np.log(xs[resolved]), np.log(-np.log(probs[resolved])), 1)[0]
        )
    else:
        mc_slope = math.nan
    # the oracle depends on t * x^-(1+beta) only: these are its t = 1 depths
    deep_x = np.array([4.5, 7.0, 10.0, 15.0]) * cfg.t_end ** (1.0 / (1.0 + cfg.beta))
    deep_p = np.asarray(inf_tail_oracle(cfg.beta, cfg.t_end, deep_x))
    oracle_slope = float(np.polyfit(np.log(deep_x), np.log(-np.log(deep_p)), 1)[0])
    rows = [
        f"{fnum(x)},{fnum(p)},{fnum(o)}" for x, p, o in zip(xs, probs, oracle)
    ]
    _atomic_write(
        Path(out_dir) / "inftail.csv",
        _csv_lines("stabletails.inf", cfg_hash, "x,p_hat,first_passage_oracle", rows),
    )
    calibration = [(0.1, 0.5, 0.25), (0.1, 0.6, 0.3), (0.05, 0.3, 0.15), (0.1, 0.4, 0.2)]
    holdout = [
        (0.1, 0.3, 0.15),
        (0.1, 0.3, 0.2),
        (0.2, 0.4, 0.2),
        (0.2, 0.3, 0.15),
        (0.1, 0.45, 0.22),
    ]
    sj = calibrate_smalljump_bound(
        cfg.beta, calibration, holdout, cfg.replicas, RngStream(cfg.seed, 1), cfg.path_steps
    )
    rows = [
        f"cal,{fnum(t)},{fnum(x)},{fnum(y)},{fnum(p)}," for (t, x, y, p) in sj.calibration
    ] + [
        f"holdout,{fnum(t)},{fnum(x)},{fnum(y)},{fnum(p)},{fnum(b)}" for (t, x, y, p, b) in sj.holdout
    ]
    _atomic_write(
        Path(out_dir) / "smalljump.csv",
        _csv_lines("stabletails.smalljump", cfg_hash, "set,t,x,y,p_hat,bound", rows),
    )
    records = {
        0: {
            **{f"inf_p:x={x:g}": float(p) for x, p in zip(xs, probs)},
            "_retries": 0.0,
        }
    }
    extra = {
        "mc_slope_resolved": mc_slope,
        "oracle_slope_deep": oracle_slope,
        "target_slope": (1.0 + cfg.beta) / cfg.beta,
        "smalljump_c_fitted": sj.c_fitted,
        "smalljump_violations": sj.violations,
        "max_abs_oracle_gap": float(np.max(np.abs(probs[resolved] - oracle[resolved])))
        if resolved.any()
        else math.nan,
        "artifact_tables": ["inftail.csv", "smalljump.csv"],
    }
    return records, extra


def _run_criterion(cfg: ExperimentConfig, out_dir, cfg_hash):
    params = CriterionParams(
        beta=cfg.beta,
        gamma=cfg.gamma,
        q=cfg.q_criterion,
        k_window=cfg.k_window,
        r=cfg.r_grid[0] if cfg.r_grid else 1.0,
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
    _atomic_write(Path(out_dir) / "criterion.txt", "\n".join(block) + "\n")
    rows = [f"{fnum(r)},{fnum(v)}" for r, v in zip(rep.r_grid, rep.q_trend)]
    _atomic_write(
        Path(out_dir) / "criterion_rgrid.csv",
        _csv_lines("criterion.rgrid", cfg_hash, "r,q_total", rows),
    )
    extra = {
        "g_closed": rep.g_closed,
        "q_convergent": [rep.q_a.convergent, rep.q_b.convergent, rep.q_c.convergent],
        "q_trend_decreasing": rep.q_trend_decreasing,
        "q_trend_final": float(rep.q_trend[-1]),
        "artifact_tables": ["criterion.txt", "criterion_rgrid.csv"],
    }
    return {0: {"q_total": rep.q_total, "_retries": 0.0}}, extra


def _holder_field(cfg: ExperimentConfig):
    if cfg.holder_input is not None:
        return read_field(cfg.holder_input), 1.0
    n = 4096
    x = np.linspace(0.0, 1.0, n)
    gen = RngStream(cfg.seed, 0).gen
    fields = {
        "linear": lambda: (x, 1.0 / (n - 1)),
        "sqrt_cusp": lambda: (np.abs(x - 0.5) ** 0.5, 1.0 / (n - 1)),
        "brownian": lambda: (np.cumsum(gen.normal(0.0, math.sqrt(1.0 / n), n)), 1.0 / n),
    }
    assert tuple(fields) == HOLDER_SYNTHETICS, "validate() reads HOLDER_SYNTHETICS"
    return fields[cfg.holder_synthetic]()


def _run_holder(cfg: ExperimentConfig, out_dir, cfg_hash):
    field_vals, dx = _holder_field(cfg)
    lo, hi = (int(v) for v in cfg.holder_lags)
    fit = holder_exponent(field_vals, (lo, hi), dx=dx)
    rows = [f"{fnum(s)},{fnum(w)}" for s, w in zip(fit.scales, fit.oscillations)]
    _atomic_write(
        Path(out_dir) / "holder.csv",
        _csv_lines("holder", cfg_hash, "scale,oscillation", rows),
    )
    extra = {
        "exponent": fit.exponent,
        "ci_low": fit.ci_low,
        "ci_high": fit.ci_high,
        "artifact_tables": ["holder.csv"],
    }
    return {0: {"exponent": fit.exponent, "_retries": 0.0}}, extra


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


def _check_stabletails(report: RunReport) -> list[str]:
    violations = report.extra.get("smalljump_violations", 0)
    return [f"smalljump holdout violations: {violations}"] if violations > 0 else []


def _check_criterion(report: RunReport) -> list[str]:
    if report.extra.get("q_trend_decreasing", False):
        return []
    return ["Q(0, r) trend is not strictly decreasing"]


# --- the registry -----------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What one experiment kind does (see the module docstring).  Signatures:
    functionals(cfg), record(cfg, rec, mu0) -> dict, finalize(cfg, records,
    merged, out_dir, cfg_hash) -> extra with an `artifact_tables` list,
    run(cfg, out_dir, cfg_hash) -> (records, extra), check(report) -> fails.
    saves_paths also makes its replicas keep the path (`simulate`'s
    keep_path)."""

    record: Callable | None = None
    finalize: Callable | None = None
    run: Callable | None = None
    functionals: Callable = lambda cfg: []
    check: Callable = lambda report: []
    saves_paths: bool = False  # writes the path files that save_paths asks for


REGISTRY: dict[str, Kind] = {
    # the path files hold the event log and the snapshots
    "simulate": Kind(record=_record_simulate, finalize=_finalize_simulate, saves_paths=True),
    "duality": Kind(record=_record_duality, finalize=_finalize_duality, check=_check_duality),
    "tanaka": Kind(
        record=_record_tanaka,
        finalize=_finalize_tanaka,
        functionals=_tanaka_functionals,
        check=_check_tanaka,
    ),
    "moments": Kind(
        record=_record_moments,
        finalize=_finalize_moments,
        functionals=_moments_functionals,
        check=_check_moments,
    ),
    "jumps": Kind(record=_record_jumps, finalize=_finalize_jumps,
                  functionals=_jumps_functionals, check=_check_jumps),
    "timechange": Kind(
        record=_record_timechange,
        finalize=_finalize_timechange,
        functionals=_timechange_functionals,
        check=_check_timechange,
    ),
    "stabletails": Kind(run=_run_stabletails, check=_check_stabletails),
    "criterion": Kind(run=_run_criterion, check=_check_criterion),
    "holder": Kind(run=_run_holder),
    "unbounded2d": Kind(record=_record_unbounded2d, finalize=_finalize_unbounded2d,
                        functionals=_unbounded2d_functionals),
}
# config validates kind names and [section] headers against KINDS
assert tuple(REGISTRY) == KINDS, "REGISTRY and config.KINDS list different kinds"


def _write_report(kind, cfg_hash, config_lines, records, merged, extra, out_dir) -> RunReport:
    """records.jsonl and report.json for one run or merge, both strict JSON
    (a non-finite number is written as null); status is 'degraded' when the
    censoring rate exceeds 5% or a reported number is non-finite."""
    retries = sum(r.get("_retries", 0.0) for r in records.values())
    attempts = len(records) + retries
    censoring_rate = retries / attempts if attempts else 0.0
    record_lines = [
        json.dumps(_null_nonfinite({"replica": i, **records[i]}), sort_keys=True, allow_nan=False)
        for i in sorted(records)
    ]
    _atomic_write(out_dir / "records.jsonl", "\n".join(record_lines) + "\n")
    artifacts = sorted(
        ["records.jsonl", "report.json"] + list(extra.pop("artifact_tables", []))
    )
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
        extra = kind.finalize(cfg, records, merged, out_dir, cfg_hash)
    else:
        records, extra = kind.run(cfg, out_dir, cfg_hash)
        merged = _merge_records(records)
    report = _write_report(
        cfg.kind, cfg_hash, canonical_lines(cfg), records, merged, extra, out_dir
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
    cfg.out = str(out)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = _merge_records(all_records)
    cfg_hash = reports[0].config_hash
    kind = REGISTRY[cfg.kind]
    if kind.run is None:
        extra = kind.finalize(cfg, all_records, merged, out_dir, cfg_hash)
    else:
        extra = dict(reports[0].extra)
    return _write_report(
        cfg.kind, cfg_hash, reports[0].config_lines, all_records, merged, extra, out_dir
    )


def check_report(report: RunReport) -> list[str]:
    """Acceptance-style threshold checks per kind (used by the CLI --check
    flag); returns the list of failures, empty when all pass."""
    return REGISTRY[report.kind].check(report)
