"""Print the sha256 of every artifact each experiment kind writes at a
pinned tiny config.

    PYTHONPATH=src python3 docs/artifact_digests.py

Runs each kind into a temporary directory, with a relative `out` so that
report.json (which records the config) does not depend on where it ran.
Run it on two commits and diff the tables to show which artifacts a change
alters; it uses only `parse_config_text` and `run_experiment`, so it runs on
older commits too.  Takes a few seconds.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from sbmlab.config import KINDS, parse_config_text
from sbmlab.harness import run_experiment

_PARTICLES = "n_scale = 200\nt_end = 0.1\nreplicas = 4\n"
CONFIGS = {
    "simulate": _PARTICLES,
    "duality": _PARTICLES + "solver_nx = 41\nsolver_nt = 5\nsolver_x_min = -4\nsolver_x_max = 4\n",
    "tanaka": _PARTICLES + "x_panel = -1 1 11\nbandwidth = 0.2\n",
    "moments": _PARTICLES,
    "jumps": _PARTICLES + "jump_units = 2 6 3\n",
    "timechange": _PARTICLES,
    "stabletails": "replicas = 400\npath_steps = 32\n",
    "criterion": "",
    "holder": "",
    "unbounded2d": _PARTICLES + "dim = 2\n",
}


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for kind in KINDS:
            cfg = parse_config_text(f"beta = 0.5\nseed = 3\nout = {kind}\n{CONFIGS[kind]}", kind=kind)
            with contextlib.redirect_stdout(sys.stderr):
                run_experiment(cfg)
            for path in sorted(Path(kind).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{kind:12s} {path.name:28s} {digest}")
        os.chdir(home)


if __name__ == "__main__":
    main()
