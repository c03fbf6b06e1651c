"""Benchmark of the sbmlab experiment harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every experiment call runs in a fresh
interpreter (`run_one.py`) through the public `sbmlab.harness.run_experiment`,
with the BLAS thread count pinned.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines before
it name every metric with its unit, the environment and the artifact digests.

--trace 0: a reference call at REFERENCE_SEED, whose scientific checks are
    gated and whose digests are compared with reference_digests.json, then
    timed calls over the workload's fixed replica blocks of the experiment
    seeded --seed, with set-up-only calls spread between them up to
    SETUP_SAMPLES set-up samples.  The blocks are sized so that the timed
    calls take about --seconds on the code the benchmark was defined on, and
    every commit times the same blocks; past a deadline the rest are skipped
    and the run says so.  Reports the median wall time, set-up time and peak
    memory per call.
--trace 1: call 0 of --seed run untraced, untraced on one worker when the
    workload uses more, and traced on one worker (forked workers' spans
    would be lost).  The artifacts must match byte for byte; reports the
    per-layer metrics and writes them to .bench_out/<workload>/.

When a change is meant to alter the reference digests, copy the sha256 values
the run prints into reference_digests.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT_ROOT, REFERENCE_SEED, WORKLOADS

SETUP_SAMPLES = 11  # set-up-only calls top the calls up to this many samples
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # the whole run, reference call included
TIMED_DEADLINE = 1.3  # x --seconds: no timed call starts later than this
ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "reference_digests.json"


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _call(payload: dict, deadline: float) -> dict:
    """Run one call in a fresh interpreter and return its result object. The
    child leads its own process group, so a timeout kills its workers too."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run_one.py"), json.dumps(payload)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("experiment call did not finish before the run's deadline")
    if proc.returncode != 0:
        raise BenchError(f"experiment call exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own
    (git would otherwise answer for an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(seed: int, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _check_failures(result: dict) -> list[str]:
    """check_failures of one call: its check_report failures, non-finite
    merged means or numeric `extra` values, and a status other than ok."""
    found = [f"check_report: {msg}" for msg in result["check_report"]]
    found += [f"non-finite {key}" for key in result["nonfinite"]]
    if result["status"] != "ok":
        found.append(f"status {result['status']}")
    return found


def _gate(result: dict, statistical: bool) -> list[str]:
    """The findings that make a run incorrect: check_failures and replica
    failures.  check_report's z-score thresholds at 3 are gated only when
    `statistical`: at a fresh seed each fails correct code about 0.3% of the
    time, which over the few hundred calls of a benchmark campaign is near
    certain, so calls at benchmark seeds report them and the reference call,
    at a fixed seed, gates them."""
    found = [f for f in _check_failures(result)
             if statistical or not f.startswith("check_report")]
    if result["replica_failures"]:
        found.append(f"{result['replica_failures']} cap retries or failed replicas")
    return found


def _summary(values: list[float]) -> str:
    return f"median {statistics.median(values)!r} max {max(values)!r} n {len(values)}"


def _check_reference(workload, deadline: float) -> tuple[dict, list[str]]:
    ref = _call({"config": workload.config_text(REFERENCE_SEED, 0), "trace": False}, deadline)
    problems = _gate(ref, statistical=True)
    want = json.loads(DIGESTS.read_text()).get(workload.name, {})
    for name, key in (("records.jsonl", "records_sha256"), ("report.json", "report_sha256")):
        if name not in want:
            verdict = "no recorded digest"
        elif want[name] == ref[key]:
            verdict = "matches the recorded digest"
        else:
            verdict = f"differs from the recorded digest {want[name]}"
        print(f"bench: reference seed {REFERENCE_SEED} {name} sha256 {ref[key]} ({verdict})")
    print(f"bench: reference call wall_s {ref['wall_s']!r} s, check_report failures "
          f"{len(ref['check_report'])} (gated)")
    return ref, problems


def measured_run(workload, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + DEADLINE_S
    ref, problems = _check_reference(workload, deadline)
    blocks = workload.blocks(seconds)
    calls: list[dict] = []
    probes: list[dict] = []
    start = time.monotonic()
    for k in blocks:
        if time.monotonic() - start > TIMED_DEADLINE * seconds:
            print(f"bench: deadline passed; timed {len(calls)} of {len(blocks)} replica blocks")
            break
        res = _call({"config": workload.config_text(seed, k), "trace": False}, deadline)
        calls.append(res)
        problems += [f"call {k}: {p}" for p in _gate(res, statistical=False)]
        print(f"bench: call {k} seed {seed} replica_start {k * workload.replicas}: "
              f"setup_s {res['setup_s']:.4f} wall_s {res['wall_s']:.4f} "
              f"peak_rss_mb {res['peak_rss_mb']:.1f} records.jsonl sha256 {res['records_sha256']} "
              f"report.json sha256 {res['report_sha256']}")
        # spread the set-up-only calls between the timed calls, so that the
        # set-up samples span the run as the wall times do
        due = math.ceil(SETUP_SAMPLES * len(calls) / len(blocks))
        while 1 + len(calls) + len(probes) < due:
            probes.append(_call({"config": workload.config_text(seed, 0), "trace": False,
                                 "setup_only": True}, deadline))
    walls = [c["wall_s"] for c in calls]
    setups = [c["setup_s"] for c in [ref, *calls, *probes]]
    rss = [c["peak_rss_mb"] for c in calls]
    attempts = sum(c["replica_attempts"] for c in [ref, *calls])
    failures = sum(c["replica_failures"] for c in [ref, *calls])
    check_failures = [f"call {k}: {f}" for k, c in enumerate(calls) for f in _check_failures(c)]
    print(f"bench: wall_s (s): {_summary(walls)}")
    print(f"bench: setup_s (s): {_summary(setups)}")
    print(f"bench: peak_rss_mb (MB): {_summary(rss)}")
    print(f"bench: failed_share (share): {failures / attempts!r} ({failures} of {attempts} "
          f"replica attempts)")
    print(f"bench: check_failures (count): reference call {len(_check_failures(ref))} (gated), "
          f"timed calls {len(check_failures)} (check_report part reported, not gated)")
    for f in check_failures:
        print(f"bench: check failure {f}")
    for p in problems:
        print(f"bench: FAILED {p}")
    outcome = {
        "correct": not problems,
        "attempted": attempts,
        "failed": failures,
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
    }
    return outcome, [ref, *calls]


def traced_run(workload, seed: int) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + DEADLINE_S
    config = workload.config_text(seed, 0)
    untraced = _call({"config": config, "trace": False}, deadline)
    serial = untraced
    if workload.workers > 1:
        serial = _call({"config": workload.config_text(seed, 0, workers=1), "trace": False},
                       deadline)
    traced = _call(
        {"config": workload.config_text(seed, 0, workers=1), "trace": True,
         "workers": workload.workers, "untraced_wall_s": untraced["wall_s"],
         "serial_wall_s": serial["wall_s"]},
        deadline,
    )
    calls = [untraced, serial, traced] if serial is not untraced else [untraced, traced]
    problems = [p for c in calls for p in _gate(c, statistical=False)]
    for key in ("records_sha256", "report_sans_workers_sha256"):
        if len({c[key] for c in calls}) != 1:
            problems.append(f"traced and untraced calls differ in {key}")
    if traced["untraced_targets"]:
        print(f"bench: not traced (missing from sbmlab): {traced['untraced_targets']}")
    attempts = sum(c["replica_attempts"] for c in calls)
    failures = sum(c["replica_failures"] for c in calls)
    layers = {
        **traced["layers"],
        "setup.import_s": traced["import_s"],
        "harness.artifact_bytes": traced["artifact_bytes"],
        "harness.failed_share": failures / attempts,
        "harness.check_failures": len(_check_failures(traced)),
        "harness.untraced_wall_s": untraced["wall_s"],
        "harness.traced_wall_s": traced["wall_s"],
        "harness.trace_overhead_s": traced["wall_s"] - serial["wall_s"],
    }
    print(f"bench: traced call records.jsonl sha256 {traced['records_sha256']} "
          f"({'identical to' if not problems else 'compared with'} the untraced calls)")
    for p in problems:
        print(f"bench: FAILED {p}")
    outcome = {"correct": not problems, "attempted": attempts, "failed": failures,
               "metrics": layers}
    return outcome, calls


def _with_units(values: dict, declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(f"metrics {sorted(set(values) ^ names)} are computed or declared, "
                         "not both; BENCHMARK.json and the benchmark disagree")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sbmlab" / "__init__.py").is_file():
        print(f"bench: no sbmlab sources under {ROOT / 'src'}; run it from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            outcome, calls = traced_run(workload, args.seed)
        else:
            outcome, calls = measured_run(workload, args.seed, args.seconds)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        outcome["metrics"] = _with_units(outcome["metrics"], declared)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    env = _environment(args.seed, calls[0]["versions"])
    print(f"bench: environment {json.dumps(env, sort_keys=True)}")
    for name, m in outcome["metrics"].items():
        print(f"bench: {args.workload} {name} = {m['value']!r} {m['unit']}")
    out_dir = ROOT / OUT_ROOT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "layers" if args.trace else "result"
    (out_dir / f"{kind}-seed{args.seed}.json").write_text(
        json.dumps({"environment": env, **outcome, "calls": calls}, indent=1) + "\n"
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
