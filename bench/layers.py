"""The sbmlab layer boundaries a traced run wraps, and the per-layer metrics
reduced from their spans.

Every target is a public name of the package; `Tracer` rebinds it wherever a
loaded `sbmlab` module holds it, so the harness's own imports of `simulate`,
`solve_mild` and the recorder post-processing functions are caught too.
"""
from __future__ import annotations

import statistics

import numpy as np

from tracer import NameStats, Target, Tracer

__all__ = ["TARGETS", "layer_metrics"]


def _step(args, kwargs, result) -> dict:
    state = args[0] if args else kwargs["state"]
    return {"particle_steps": state.count}


def _offspring(args, kwargs, result) -> dict:
    law = args[1] if len(args) > 1 else kwargs["law"]
    ks = np.atleast_1d(result)
    return {"draws": ks.size, "tail_draws": int(np.count_nonzero(ks > law.k_table))}


def _exp_kernel_sums(args, kwargs, result) -> dict:
    points = np.asarray(args[0] if args else kwargs["y"]).size
    presorted = kwargs.get("presorted", args[4] if len(args) > 4 else False)
    return {"points": points, "unsorted_points": 0 if presorted else points}


def _simulate(args, kwargs, rec) -> dict:
    return {
        "max_peak_particles": int(round(float(rec.masses.max()) * rec.params.n_scale)),
        "events": int(rec.event_times.size),
        "snapshot_bytes": sum(int(s.nbytes) for s in rec.snapshots),
    }


def _solve_mild(args, kwargs, sol) -> dict:
    return {"iterations": sol.iterations}


TARGETS = (
    Target("harness.run_experiment", "sbmlab.harness", "run_experiment"),
    # private, but the only boundary of the harness's replica phase
    Target("harness.replica_phase", "sbmlab.harness", "_run_replicas"),
    Target("particles.simulate", "sbmlab.particles", "simulate", _simulate),
    Target("particles.step", "sbmlab.particles", "step", _step),
    Target("rng.sample_offspring", "sbmlab.rng", "sample_offspring", _offspring),
    Target("particles.state_value", "sbmlab.particles", "OccupationFunctional.state_value"),
    Target("tanaka.exp_kernel_sums", "sbmlab.tanaka", "exp_kernel_sums", _exp_kernel_sums),
    Target("tanaka.tanaka_panel_terms", "sbmlab.tanaka", "tanaka_panel_terms"),
    Target("tanaka.tanaka_terms", "sbmlab.tanaka", "tanaka_terms"),
    Target("tanaka.ftc_check", "sbmlab.tanaka", "ftc_check"),
    Target("tanaka.estimate_local_time", "sbmlab.tanaka", "estimate_local_time"),
    Target("stable_path.compute_T", "sbmlab.stable_path", "compute_T"),
    Target("stable_path.interval_martingale", "sbmlab.stable_path", "interval_martingale"),
    Target("loglaplace.solve_mild", "sbmlab.loglaplace", "solve_mild", _solve_mild),
    Target("loglaplace.heat_matrix", "sbmlab.loglaplace", "heat_matrix"),
)

_TANAKA_POST = (
    "tanaka.tanaka_panel_terms",
    "tanaka.tanaka_terms",
    "tanaka.ftc_check",
    "tanaka.estimate_local_time",
)
_STABLE_POST = ("stable_path.compute_T", "stable_path.interval_martingale")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, *, workers: int, untraced_wall_s: float, serial_wall_s: float
) -> dict:
    """Per-layer metrics of one traced, serial `run_experiment` call.

    `untraced_wall_s` and `serial_wall_s` are the wall times of the same
    config run untraced at `workers` worker processes and at one.  Pool
    efficiency is the serial replica-phase time (the traced replica share of
    the serial wall time, so tracing overhead cancels) over workers x
    `untraced_wall_s`; on one worker it is the replica phase's share.
    """
    st = tracer.summary()

    def get(name: str) -> NameStats:
        return st.get(name, NameStats())

    run, replicas = get("harness.run_experiment"), get("harness.replica_phase")
    sim, step = get("particles.simulate"), get("particles.step")
    off, fun = get("rng.sample_offspring"), get("particles.state_value")
    eks, terms = get("tanaka.exp_kernel_sums"), get("tanaka.tanaka_terms")
    solve, heat = get("loglaplace.solve_mild"), get("loglaplace.heat_matrix")
    particle_steps = step.counters.get("particle_steps", 0)
    points = eks.counters.get("points", 0)
    iterations = solve.counters.get("iterations", 0)
    # replicas are the simulate calls of the replica phase, not the tanaka
    # finalizer's re-simulation
    replica_ms = [
        1e3 * s.duration
        for s in tracer.spans
        if s.name == "particles.simulate" and tracer.inside(s, {"harness.replica_phase"})
    ]
    return {
        "particles.simulate_calls": sim.calls,
        "particles.simulate_self_s": sim.self_s,
        "particles.steps": step.calls,
        "particles.particle_steps": particle_steps,
        "particles.step_self_s": step.self_s,
        "particles.step_ns_per_particle_step": 1e9 * _ratio(step.self_s, particle_steps),
        "particles.peak_particles": sim.counters.get("max_peak_particles", 0),
        "particles.events": sim.counters.get("events", 0),
        "particles.snapshot_bytes": sim.counters.get("snapshot_bytes", 0),
        "particles.functional_calls": fun.calls,
        "particles.functional_self_s": fun.self_s,
        "rng.offspring_self_s": off.self_s,
        "rng.offspring_draws": off.counters.get("draws", 0),
        "rng.offspring_tail_draws": off.counters.get("tail_draws", 0),
        "tanaka.exp_kernel_sums_calls": eks.calls,
        "tanaka.exp_kernel_sums_points": points,
        "tanaka.exp_kernel_sums_unsorted_points": eks.counters.get("unsorted_points", 0),
        "tanaka.exp_kernel_sums_self_s": eks.self_s,
        "tanaka.exp_kernel_sums_ns_per_point": 1e9 * _ratio(eks.self_s, points),
        "tanaka.post_incl_s": tracer.outer_incl_s(_TANAKA_POST),
        "tanaka.terms_calls": terms.calls,
        "tanaka.terms_incl_s": terms.incl_s,
        "stable_path.post_incl_s": tracer.outer_incl_s(_STABLE_POST),
        "loglaplace.solve_incl_s": solve.incl_s,
        "loglaplace.heat_matrix_self_s": heat.self_s,
        "loglaplace.picard_iterations": iterations,
        "loglaplace.s_per_iteration": _ratio(solve.incl_s - heat.incl_s, iterations),
        # the harness's own time: run_experiment's and the replica phase's
        # (worker loop, functionals set-up, per-replica records)
        "harness.self_s": run.self_s + replicas.self_s,
        "harness.replica_samples": len(replica_ms),
        "harness.replica_ms_p50": statistics.median(replica_ms) if replica_ms else 0.0,
        "harness.replica_ms_max": max(replica_ms, default=0.0),
        "harness.pool_efficiency": _ratio(
            _ratio(replicas.incl_s, run.incl_s) * serial_wall_s, workers * untraced_wall_s
        ),
    }
