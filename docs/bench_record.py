"""Time a change against a reference commit with the repository benchmark, in
alternating pairs, and write the result to BENCH_<label>.json.

    python3 docs/bench_record.py --label L --against REF \
        [--workloads W ...] [--seeds S ...]

Run from the root of a checkout.  The committed files of REF are exported
into a temporary directory (`git archive`, so the repository's .git is left
as it is, and REF is timed as a fresh checkout of it would be).  For every
workload and seed, `bench/run.py --trace 0`, at the run length that
BENCHMARK.json sets, runs once on REF and once on the working tree; the two
runs form a pair, and the side that goes first alternates from pair to pair,
so that slow drift of the machine falls on both sides alike.  Runs are sequential: two at once would time each other.
After the pairs of a workload, one `bench/run.py --trace 1` run per side, at
the first seed, records the per-layer metrics.  After every workload, the
tier-1 suite (`PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors`, with `--durations=0`) runs once per side.

BENCH_<label>.json, at the root of the checkout, holds the environment, the
sha of REF and of the working tree's HEAD (with whether the tree differs
from it and a digest of that difference outside the Markdown files and the
BENCH_*.json records, so that writing a record up leaves the digest of the
timed code as it was), and per workload and end-to-end
metric: the raw values of each side in seed order, their median and
quartiles, the number of pairs the change wins, and the change of the
median relative to REF.  Per workload it also holds the artifact digests
every run printed (the reference call's and each timed call's), and whether
they are the same on both sides, and the per-layer metrics of each side's
traced run.  Per side it holds the tier-1 run: its wall time, exit
code and summary line, and the duration of every phase of the acceptance
tests that pytest lists.  It is rewritten after every pair, so an
interrupted run keeps what it measured.  A run that exits non-zero stops
the script, naming the side and the seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# left out of the working-tree digest: write-ups, which no run reads
DIFF_EXCLUDES = ["*.md", "BENCH_*.json"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
# one `--durations` line: seconds, phase, test id
DURATION = re.compile(r"^\s*([0-9.]+)s\s+(setup|call|teardown)\s+(tests/test_acceptance\.py::\S+)")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def _export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _bench(checkout: Path, workload: str, seed: int, trace: bool = False
           ) -> tuple[dict, dict, list[str]]:
    """One `bench/run.py` run in checkout: its result object (the last stdout
    line), the environment it printed, and the artifact digests it printed,
    in order."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py exited with {proc.returncode} in {checkout} "
                         f"({workload}, seed {seed}):\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    env_prefix = "bench: environment "
    env = next((json.loads(line[len(env_prefix):]) for line in lines
                if line.startswith(env_prefix)), {})
    digests = [m.group(1) for line in lines[:-1]
               for m in re.finditer(r"(\S+ sha256 [0-9a-f]{64})", line)]
    return json.loads(lines[-1]), env, digests


def _tier1(checkout: Path) -> dict:
    """One run of the tier-1 suite in checkout: its wall time, exit code and
    summary line, and the acceptance tests' `--durations` lines."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "acceptance_durations": [
            {"test": m.group(3), "phase": m.group(2), "s": float(m.group(1))}
            for m in map(DURATION.match, lines) if m
        ],
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _summary(runs: dict) -> dict:
    """Per end-to-end metric: both sides' spreads, pair wins and the median's
    relative change, from the paired runs {"ref": [...], "change": [...]}."""
    out = {}
    for m in SPEC["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        ref = [r["metrics"][name]["value"] for r in runs["ref"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(ref, new))
        ref_s, new_s = _spread(ref), _spread(new)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "ref": ref_s,
            "change": new_s,
            "pairs": len(ref),
            "change_wins": wins,
            "median_change": new_s["median"] / ref_s["median"] - 1.0,
            "ref_iqr": ref_s["q3"] - ref_s["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", required=True, metavar="REF")
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    diff = _git("diff", "HEAD", "--", ".", *(f":(exclude){p}" for p in DIFF_EXCLUDES)).encode()
    result = {
        "label": args.label,
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {SPEC['run_seconds']} --trace 0, "
                   "then --trace 1 once per side at the first seed",
        "environment": {"platform": platform.platform(), "cpu": _cpu_model()},
        "ref": {"rev": args.against, "sha": _git("rev-parse", args.against).strip()},
        "change": {"head_sha": _git("rev-parse", "HEAD").strip(), "dirty": bool(diff),
                   "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
                   "diff_excludes": DIFF_EXCLUDES},
        "seeds": args.seeds,
        "workloads": {},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-ref-") as tmp:
        ref_root = Path(tmp)
        _export(args.against, ref_root)
        sides = [("ref", ref_root), ("change", ROOT)]
        pair = 0
        for workload in args.workloads:
            runs = {"ref": [], "change": []}
            digests = {"ref": [], "change": []}
            entry = result["workloads"][workload] = {}
            for seed in args.seeds:
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    outcome, env, printed = _bench(checkout, workload, seed)
                    runs[side].append(outcome)
                    digests[side].append(printed)
                    result["environment"].update(
                        {k: v for k, v in env.items() if k not in ("git_sha", "seed")})
                    print(f"bench_record: {workload} seed {seed} {side}: "
                          + " ".join(f"{k} {v['value']:.4g}"
                                     for k, v in outcome["metrics"].items()),
                          flush=True)
                pair += 1
                entry.update({
                    "metrics": _summary(runs),
                    "correct": {s: [r["correct"] for r in rs] for s, rs in runs.items()},
                    "failed_share": {
                        s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                        for s, rs in runs.items()
                    },
                    "digests": digests,
                    "digests_identical": digests["ref"] == digests["change"],
                })
                path.write_text(json.dumps(result, indent=1) + "\n")
            entry["layers"] = {"seed": args.seeds[0]}
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                outcome, _, _ = _bench(checkout, workload, args.seeds[0], trace=True)
                entry["layers"][side] = {k: v["value"] for k, v in outcome["metrics"].items()}
                entry["layers"][f"{side}_correct"] = outcome["correct"]
                print(f"bench_record: {workload} traced {side}: correct {outcome['correct']}",
                      flush=True)
            pair += 1
            path.write_text(json.dumps(result, indent=1) + "\n")
        result["tier1"] = {"command": "PYTHONPATH=src python -m " + " ".join(TIER1[1:])}
        for side, checkout in sides:
            result["tier1"][side] = run = _tier1(checkout)
            print(f"bench_record: tier-1 {side}: {run['wall_s']:.1f} s, exit {run['exit_code']}, "
                  f"{run['summary']}", flush=True)
            path.write_text(json.dumps(result, indent=1) + "\n")
    for workload, w in result["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"bench_record: {workload} {name}: median {m['ref']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} ({100 * m['median_change']:+.1f}%), "
                  f"change wins {m['change_wins']}/{m['pairs']}, ref IQR {m['ref_iqr']:.3g}")
        print(f"bench_record: {workload} artifact digests identical on both sides: "
              f"{w['digests_identical']}")
    print(f"bench_record: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
