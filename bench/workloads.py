"""The benchmark's workloads: pinned sbmlab configs, each made concrete by a
seed and a call index.

Call k of a run at seed s runs replica block k of the experiment seeded s:
`seed = s`, `replica_start = k * replicas`.  A run times a fixed list of
blocks, `blocks(seconds)`, so that every commit is timed on the same inputs.
Every call writes into the same relative output directory, because `out` is
part of the `config_lines` that `report.json` records, and the digests must
not depend on where the checkout lives.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "REFERENCE_SEED", "OUT_ROOT"]

OUT_ROOT = ".bench_out"
# Seed of the reference call that every run makes before the timed calls.
# The statistical checks are gated on it, and its artifact digests are
# compared with reference_digests.json.
REFERENCE_SEED = 20250926

_MODEL = "beta = 0.5\nt_end = 0.5\n"


@dataclass(frozen=True)
class Workload:
    name: str
    settings: str  # config lines shared by every call
    replicas: int
    workers: int
    calls: int  # timed calls at --seconds 30: about 30 s on the code this was sized on

    def blocks(self, seconds: int) -> range:
        """The replica blocks a run at `seconds` times, the same on every commit."""
        return range(max(3, round(self.calls * seconds / 30)))

    def config_text(self, seed: int, call: int, workers: int | None = None) -> str:
        return (
            f"{_MODEL}{self.settings}"
            f"replicas = {self.replicas}\n"
            f"workers = {self.workers if workers is None else workers}\n"
            f"seed = {seed}\n"
            f"replica_start = {call * self.replicas}\n"
            f"out = {OUT_ROOT}/{self.name}/out\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Exp-kernel sums on sorted positions (two Tanaka panels), the
            # histogram, per-step snapshots and the finalizer's recorder
            # post-processing dominate.
            name="tanaka-panels",
            settings="kind = tanaka\nn_scale = 1000\n",
            replicas=20,
            workers=1,
            calls=8,
        ),
        Workload(
            # Criterion-09 functionals and interval on two workers: the particle
            # step and the per-particle psi0 and interval functionals dominate,
            # no exp-kernel sum runs, and replica cost is heavy-tailed across
            # the pool.
            name="timechange-pool",
            settings="kind = timechange\nn_scale = 2000\nlam = 1.0\nx1 = -0.1\nx2 = 0.1\n"
            "snapshot_stride = 1000000000\n",
            replicas=40,
            workers=2,
            calls=10,
        ),
        Workload(
            # solve_mild on the criterion-04 grid refined in t dominates; the
            # replicas are bare (no functional), and snapshots are kept only at
            # the ends.
            name="duality-solver",
            settings="kind = duality\nn_scale = 4000\nsolver_nx = 401\nsolver_nt = 150\n"
            "snapshot_stride = 1000000000\n",
            replicas=8,
            workers=1,
            calls=5,
        ),
    )
}
