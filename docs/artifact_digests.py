"""Print the sha256 of every artifact each experiment kind writes at a
pinned tiny config.

    PYTHONPATH=src python3 docs/artifact_digests.py

Runs each kind into a temporary directory, with a relative `out` so that
report.json (which records the config) does not depend on where it ran.
Run it on two commits and diff the tables to show which artifacts a change
alters; it uses only `parse_config_text` and `run_experiment`, so it runs on
older commits too.  Takes a few seconds.

Every replica kind also runs at `workers = 3` (on the process pool).  The
script exits non-zero, naming the files, if any artifact of that run differs
from the one-worker run; report.json is compared without its `workers` line.

    PYTHONPATH=src python3 docs/artifact_digests.py --write tests/artifact_digests.txt

writes the table, after a line each with the Python and numpy versions, to
the committed file that tests/test_artifact_digests.py checks.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from sbmlab.config import parse_config_text
from sbmlab.harness import REGISTRY, run_experiment

_PARTICLES = "n_scale = 200\nt_end = 0.1\nreplicas = 4\n"
CONFIGS = {
    "simulate": _PARTICLES,
    # 40 time rows: the solve spans three blocks of loglaplace._BLOCK_ROWS = 16
    "duality": _PARTICLES + "solver_nx = 41\nsolver_nt = 40\nsolver_x_min = -4\nsolver_x_max = 4\n",
    "tanaka": _PARTICLES + "x_panel = -1 1 11\nbandwidth = 0.2\n",
    "moments": _PARTICLES,
    "jumps": _PARTICLES + "jump_units = 2 6 3\n",
    "timechange": _PARTICLES,
    "criterion": "",
    "holder": "",
    "unbounded2d": _PARTICLES + "dim = 2\n",
}
POOL_WORKERS = 3


def config_text(kind: str, workers: int) -> str:
    """The pinned config of kind, with a relative `out` named after it."""
    return f"beta = 0.5\nseed = 3\nout = {kind}\nworkers = {workers}\n{CONFIGS[kind]}"


def _artifacts(kind: str, workers: int) -> dict[str, bytes]:
    """Run kind in ./w<workers>/<kind> (relative out, as above) and read back
    every file it wrote."""
    home = os.getcwd()
    os.makedirs(f"w{workers}", exist_ok=True)
    os.chdir(f"w{workers}")
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run_experiment(parse_config_text(config_text(kind, workers), kind=kind))
        return {path.name: path.read_bytes() for path in sorted(Path(kind).iterdir())}
    finally:
        os.chdir(home)


def _without_workers_line(data: bytes) -> bytes:
    return b"".join(
        line for line in data.splitlines(keepends=True) if b'"workers = ' not in line
    )


def versions() -> list[str]:
    """The header lines of a written table: the versions that the digests
    depend on."""
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}"]


def digest_table(workdir: str | Path) -> tuple[list[str], list[str]]:
    """Every kind's artifacts run in workdir: one line per artifact (kind,
    file name, sha256), and the replica-kind artifacts that differ at
    workers = POOL_WORKERS."""
    home = os.getcwd()
    lines, differ = [], []
    os.chdir(workdir)
    try:
        for kind in REGISTRY:
            serial = _artifacts(kind, 1)
            for name, data in serial.items():
                lines.append(f"{kind:12s} {name:28s} {hashlib.sha256(data).hexdigest()}")
            if REGISTRY[kind].run is not None:
                continue  # path-free kind: no replicas, no pool
            pooled = _artifacts(kind, POOL_WORKERS)
            for name in sorted(serial.keys() | pooled.keys()):
                a, b = serial.get(name), pooled.get(name)
                if name == "report.json" and a is not None and b is not None:
                    a, b = _without_workers_line(a), _without_workers_line(b)
                if a != b:
                    differ.append(f"{kind}/{name}")
    finally:
        os.chdir(home)
    return lines, differ


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", metavar="FILE", help="write the table, with the versions, to FILE")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        lines, differ = digest_table(tmp)
    if args.write:
        Path(args.write).write_text("\n".join(versions() + lines) + "\n")
    else:
        print("\n".join(lines))
    if differ:
        print(f"differ at workers = {POOL_WORKERS}: {' '.join(differ)}", file=sys.stderr)
        return 1
    print(f"every replica kind: identical at workers = 1 and {POOL_WORKERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
