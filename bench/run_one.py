"""One `run_experiment` call in a fresh interpreter, made the way a CLI call
makes it.

    python3 bench/run_one.py '{"config": "<config text>", "trace": false}'

Needs `src` on PYTHONPATH.  Times the set-up every CLI call pays (importing
`sbmlab.cli`, then parsing and validating the config), then the experiment,
and prints one JSON object as the last line of stdout: the timings, the peak
resident memory of this process and of its worker processes, the artifact
digests, the replica attempt counts and the correctness findings.  The
harness's own progress line goes to stderr.

With `"setup_only": true` it stops after the set-up and reports only its
timings.  With `"trace": true` the call runs under the layer tracer; the
payload must then also give `workers`, and the wall times of the untraced
twin calls at that worker count (`untraced_wall_s`) and at one worker
(`serial_wall_s`).  The object then carries the per-layer metrics under
`layers`.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_digest_sans_workers(path: Path) -> str:
    """Digest of report.json with the `workers` config line dropped: the one
    line a worker-count change may alter."""
    report = json.loads(path.read_text())
    report["config_lines"] = [
        line for line in report["config_lines"] if not line.startswith("workers = ")
    ]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _nonfinite(report) -> list[str]:
    """Merged means and numeric `extra` values that are NaN or infinite."""
    bad = [f"merged {k}" for k, v in report.merged.items() if not math.isfinite(v["mean"])]
    for key, val in report.extra.items():
        vals = val if isinstance(val, list) else [val]
        if any(
            isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isfinite(v)
            for v in vals
        ):
            bad.append(f"extra {key}")
    return bad


def _library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    payload = json.loads(argv[1])
    t0 = time.perf_counter()
    importlib.import_module("sbmlab.cli")
    import_s = time.perf_counter() - t0
    from sbmlab.config import parse_config_text

    cfg = parse_config_text(payload["config"])
    violations = cfg.validate()
    setup_s = time.perf_counter() - t0
    if violations:
        print("config violations: " + "; ".join(violations), file=sys.stderr)
        return 2
    if payload.get("setup_only"):
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    from sbmlab import harness

    out = Path(cfg.out)
    shutil.rmtree(out, ignore_errors=True)
    tracer = None
    if payload["trace"]:
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer(TARGETS)
    with contextlib.redirect_stdout(sys.stderr), tracer or contextlib.nullcontext():
        t = time.perf_counter()
        report = harness.run_experiment(cfg)  # looked up now, so a traced call hits the wrapper
        wall_s = time.perf_counter() - t
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    retries = int(sum(r.get("_retries", 0.0) for r in records))
    failed_replicas = int(sum(r.get("_failed", 0.0) for r in records))
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "replica_attempts": len(records) + retries,
        "replica_failures": retries + failed_replicas,
        "status": report.status,
        "check_report": harness.check_report(report),
        "nonfinite": _nonfinite(report),
        "records_sha256": _digest(out / "records.jsonl"),
        "report_sha256": _digest(out / "report.json"),
        "report_sans_workers_sha256": _report_digest_sans_workers(out / "report.json"),
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        "versions": _library_versions(),
    }
    if tracer is not None:
        from layers import layer_metrics

        result["untraced_targets"] = tracer.missing
        result["layers"] = layer_metrics(
            tracer,
            workers=payload["workers"],
            untraced_wall_s=payload["untraced_wall_s"],
            serial_wall_s=payload["serial_wall_s"],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
