"""Compare the config violations that two source trees report, case by case.

    PYTHONPATH=src python3 docs/compare_violations.py <old tree> <new tree>

Each case is one config text.  Every tree parses and validates all of them
(`parse_config_text`) in a fresh interpreter on its own `src`, so the trees
share no module, and the sorted violations of each case are compared.  The
cases are built from the tree on PYTHONPATH, run from its root:

- every config that `tests/test_acceptance.py` runs through `run_kind` or
  parses, the benchmark's workloads (`bench/workloads.py`) and the pinned
  configs of `docs/artifact_digests.py`;
- 100 derandomized draws per kind of `valid_configs` (`tests/test_harness.py`);
- one broken value per config rule, under every kind.

Prints the number of cases and of differing cases per group, then each
differing case with the violations only one tree reports.  Exits 1 if a case
differs.  Takes a few seconds.
"""
from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from sbmlab.config import canonical_lines
from sbmlab.harness import REGISTRY

DRAWS_PER_KIND = 100
BASE = "beta = 0.5\nn_scale = 200\nt_end = 0.1\nseed = 5\nreplicas = 6\n"
# one value per rule that breaks it (and one pair); "{...}" names a file of _FILES
BROKEN = [
    "kind = nope", "beta = 1.5", "n_scale = 0", "t_end = -1", "dim = 3", "dim = 2",
    "particle_cap = 0", "snapshot_stride = 0", "dt = -1", "dt = 1",
    "replicas = 0", "replica_start = -1", "replica_start = 4294967295", "seed = -1",
    "workers = 0", "save_paths = some",
    "lam = 0", "lam = nan", "lam_alt = -1", "lam_alt = inf", "lam = 1.5\nlam_alt = 1.5",
    "bandwidth = 0", "bandwidth = nan",
    "initial_measure = /no/such/measure.txt", "holder_input = /no/such/field.csv",
    "initial_measure = {measure-ok}", "initial_measure = {measure-unparseable}",
    "initial_measure = {measure-truncated}", "initial_measure = {measure-zero}",
    "holder_input = {field-ok}", "holder_input = {field-short}",
    "holder_input = {field-unparseable}", "holder_input = {field-constant}",
    "holder_input = {field-nan}",
    "q_moment = 1.6", "distances = 0 0.1", "distances = 0.1", "pair_centers =",
    "distances = 0.03", "lam = 1000000", "lam = 1000000\nlam_alt = nan",
    "x1 = 1\nx2 = 0", "theta_grid = -1", "theta_grid =",
    "solver_nx = 4", "solver_nt = 0", "solver_x_min = 2\nsolver_x_max = 2",
    "phi_a = 1\nphi_b = -1", "phi_ramp = 0", "phi_height = -0.5", "t_end = 0",
    "window = 1", "resolutions = 0.1 0.1", "resolutions = 0.1 0",
    "x_panel = -1 1", "x_panel = -1 1 10.5", "x_panel = -400 400 11\nlam = 2\nlam_alt = 3",
    "x_eval = nan", "x_eval =", "x_eval = 0.25 1000000", "x_eval = inf",
    "holder_lags = 4", "holder_lags = 4 8", "holder_lags = 1024 4096",
    "jump_units = 40 400 -1", "jump_units = 40 400", "jump_units = 0 400 6",
    "holder_synthetic = nope",
    "n_max = 3", "k_window = -1", "r_grid = 1 -10 100", "r_grid =",
]
_FILES = {
    "measure-ok": "atoms 1\n0.0 1.0\ndensity 0\n",
    "measure-unparseable": "atoms 1\n0.0 abc\ndensity 0\n",
    "measure-truncated": "atoms 2\n0.0 1.0\n",
    "measure-zero": "atoms 0\ndensity 0\n",
    "field-ok": ",".join(str(i % 7) for i in range(256)) + "\n",
    "field-short": "1,2,3,4,5\n",
    "field-unparseable": "1,2,x\n",
    "field-constant": ",".join(["0.5"] * 100) + "\n",
    "field-nan": ",".join(["1", "nan"] * 50) + "\n",
}
_WORKER = """
import json, sys
from sbmlab.config import parse_config_text
from sbmlab.errors import ConfigError
out = []
for text in json.load(sys.stdin):
    try:
        parse_config_text(text)
        out.append([])
    except ConfigError as err:
        out.append(sorted(err.violations))
    except Exception as exc:  # a crash is a result to compare, too
        out.append([f"raised {type(exc).__name__}: {exc}"])
json.dump(out, sys.stdout)
"""


def _module(path: str):
    spec = importlib.util.spec_from_file_location(Path(path).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _literal_bindings(node, env: dict) -> None:
    """If node is an assignment `name = <literal>`, record it in env."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name):
        try:
            env[node.targets[0].id] = ast.literal_eval(node.value)
        except ValueError:
            pass


def acceptance_configs(path: str = "tests/test_acceptance.py") -> list[str]:
    """The configs of every run_kind and parse_config_text call in the
    acceptance tests whose arguments are literals, f-strings of literal
    assignments or loop variables over literal tuples.  run_kind itself
    builds each of its configs, with run_experiment replaced by a stub."""
    acceptance = _module(path)
    acceptance.run_experiment = lambda cfg: cfg
    tree = ast.parse(Path(path).read_text())
    env: dict = {}
    for node in tree.body:
        _literal_bindings(node, env)
    texts = []

    def evaluate(expr, scope):
        return eval(compile(ast.Expression(expr), path, "eval"), {}, scope)

    def visit(node, scope):
        _literal_bindings(node, scope)
        targets = getattr(getattr(node, "target", None), "elts", [getattr(node, "target", None)])
        if isinstance(node, ast.For) and all(isinstance(t, ast.Name) for t in targets):
            try:
                values = ast.literal_eval(node.iter)
            except ValueError:
                values = []
            names = [t.id for t in targets]
            for value in values:
                bound = dict(zip(names, value if len(names) > 1 else [value]))
                for child in node.body:
                    visit(child, {**scope, **bound})
            return
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "run_kind", "parse_config_text"):
            try:
                args = [evaluate(a, scope) for a in node.args[:2]]
                kwargs = {k.arg: evaluate(k.value, scope) for k in node.keywords}
            except NameError:
                args = None
            if args and node.func.id == "run_kind":
                cfg = acceptance.run_kind(args[0], args[1], Path("acceptance"))
                texts.append("\n".join(canonical_lines(cfg)))
            elif args:
                kind = kwargs.get("kind")
                texts.append(args[0] + (f"\nkind = {kind}" if kind else ""))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            visit(node, dict(env))
    return texts


def pinned_configs() -> list[str]:
    """The benchmark's workloads at their reference seed and the digest configs."""
    sys.path.insert(0, "bench")
    from workloads import REFERENCE_SEED, WORKLOADS

    digests = _module("docs/artifact_digests.py")
    return [w.config_text(REFERENCE_SEED, 0) for w in WORKLOADS.values()] + [
        f"{digests.config_text(kind, workers)}\nkind = {kind}"
        for kind in digests.CONFIGS for workers in (1, digests.POOL_WORKERS)]


def drawn_configs() -> list[str]:
    from hypothesis import HealthCheck, Phase, given, settings

    valid_configs = _module("tests/test_harness.py").valid_configs
    texts = []
    for kind in REGISTRY:
        @settings(max_examples=DRAWS_PER_KIND, derandomize=True, database=None,
                  phases=[Phase.generate], deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(valid_configs(kind))
        def collect(cfg):
            texts.append("\n".join(canonical_lines(cfg)))

        collect()
    return texts


def broken_configs(files: Path) -> list[str]:
    for name, text in _FILES.items():
        (files / name).write_text(text)
    paths = {name: files / name for name in _FILES}
    return [f"{BASE}kind = {kind}\n{s.format_map(paths)}\n" for s in BROKEN for kind in REGISTRY]


def violations(tree: str, texts: list[str]) -> list[list[str]]:
    src = str(Path(tree).resolve() / "src")
    done = subprocess.run([sys.executable, "-c", _WORKER], input=json.dumps(texts), text=True,
                          capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(done.stdout)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = sys.argv[1:]
    sys.path.insert(0, "tests")  # the test modules import conftest
    with tempfile.TemporaryDirectory() as tmp:
        groups = {
            "acceptance": acceptance_configs(),
            "benchmark and digests": pinned_configs(),
            f"valid_configs draws ({DRAWS_PER_KIND} per kind)": drawn_configs(),
            "one broken value per rule, every kind": broken_configs(Path(tmp)),
        }
        texts = [t for group in groups.values() for t in group]
        old, new = violations(old_tree, texts), violations(new_tree, texts)
    differ = [(t, a, b) for t, a, b in zip(texts, old, new) if a != b]
    start = 0
    for name, group in groups.items():
        count = sum(a != b for a, b in zip(old[start:start + len(group)],
                                           new[start:start + len(group)]))
        print(f"{name}: {len(group)} cases, {count} differ")
        start += len(group)
    for text, a, b in differ:
        print("\n" + "; ".join(line for line in text.splitlines() if line))
        for v in sorted(set(a) - set(b)):
            print(f"  old only: {v}")
        for v in sorted(set(b) - set(a)):
            print(f"  new only: {v}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
