"""Tests of the benchmark's own code: the tracer's self-time arithmetic, the
removal of every wrapper, and that tracing leaves the artifacts unchanged.

    python3 -m pytest -q bench/tests
"""
import itertools
import shutil
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from layers import TARGETS, layer_metrics  # noqa: E402
from tracer import WRAPPED_MARK, Target, Tracer  # noqa: E402

import sbmlab.cli  # noqa: E402,F401  (loads every sbmlab module, as a CLI call does)
from sbmlab import harness, particles  # noqa: E402
from sbmlab.config import parse_config_text  # noqa: E402

FAKE_MOD = """
def inner():
    return 1

def outer():
    return inner() + inner()
"""


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("benchfake")
    mod = types.ModuleType("benchfake.mod")
    exec(FAKE_MOD, mod.__dict__)
    other = types.ModuleType("benchfake.other")
    other.inner_alias = mod.inner  # a second binding, as `from .mod import inner` makes
    sys.modules.update({"benchfake": pkg, "benchfake.mod": mod, "benchfake.other": other})
    yield mod, other
    for name in ("benchfake", "benchfake.mod", "benchfake.other"):
        del sys.modules[name]


def test_self_time_of_nested_calls(fake_package):
    mod, other = fake_package
    ticks = itertools.count()
    targets = [Target("outer", "benchfake.mod", "outer"), Target("inner", "benchfake.mod", "inner")]
    with Tracer(targets, clock=lambda: float(next(ticks))) as tracer:
        assert mod.outer() == 2
        assert getattr(other.inner_alias, WRAPPED_MARK) is not None
    # clock reads: outer 0..5 encloses inner 1..2 and inner 3..4
    st = tracer.summary()
    assert (st["outer"].calls, st["outer"].incl_s, st["outer"].self_s) == (1, 5.0, 3.0)
    assert (st["inner"].calls, st["inner"].incl_s, st["inner"].self_s) == (2, 2.0, 2.0)
    assert tracer.outer_incl_s({"outer", "inner"}) == 5.0
    assert tracer.outer_incl_s({"inner"}) == 2.0
    outer_span, inner_span = tracer.spans[0], tracer.spans[1]
    assert tracer.inside(inner_span, {"outer"}) and not tracer.inside(outer_span, {"outer"})
    assert not hasattr(mod.inner, WRAPPED_MARK) and other.inner_alias is mod.inner


def test_missing_target_is_reported_not_fatal(fake_package):
    targets = [Target("gone", "benchfake.mod", "no_such_function"),
               Target("nomod", "benchfake.absent", "f")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.missing == ["gone", "nomod"]


def _bindings() -> dict:
    """Every attribute of every loaded sbmlab module, and of the class whose
    method the tracer wraps."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "sbmlab" or name.startswith("sbmlab.")):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("OccupationFunctional", k): v
                for k, v in vars(particles.OccupationFunctional).items()})
    return out


TINY = {
    "tanaka": "kind = tanaka\nbeta = 0.5\nn_scale = 200\nt_end = 0.1\nreplicas = 3\nseed = 4\n",
    "timechange": "kind = timechange\nbeta = 0.5\nn_scale = 200\nt_end = 0.1\nreplicas = 3\n"
                  "seed = 4\n",
    "duality": "kind = duality\nbeta = 0.5\nn_scale = 200\nt_end = 0.1\nreplicas = 3\nseed = 4\n"
               "solver_nx = 41\nsolver_nt = 8\nsnapshot_stride = 1000000000\n",
}


def _run(kind: str, traced: bool):
    cfg = parse_config_text(TINY[kind] + "out = out\n")
    shutil.rmtree("out", ignore_errors=True)
    if not traced:
        harness.run_experiment(cfg)
        return None, {p: Path("out", p).read_bytes() for p in ("records.jsonl", "report.json")}
    original = particles.simulate
    with Tracer(TARGETS) as tracer:
        assert getattr(harness.simulate, WRAPPED_MARK) is original
        harness.run_experiment(cfg)
    return tracer, {p: Path("out", p).read_bytes() for p in ("records.jsonl", "report.json")}


def test_every_wrapper_is_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _bindings()
    tracer, _ = _run("tanaka", traced=True)
    assert tracer.missing == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, WRAPPED_MARK) for v in after.values())


def test_wrappers_are_removed_when_the_run_raises(monkeypatch):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(TARGETS):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_writes_identical_artifacts(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, plain = _run(kind, traced=False)
    tracer, traced = _run(kind, traced=True)
    assert traced == plain
    layers = layer_metrics(tracer, workers=1, untraced_wall_s=1.0, serial_wall_s=1.0)
    cfg = parse_config_text(TINY[kind])
    n_steps = particles.make_params(0.5, 200, 0.1).n_steps
    sims = cfg.replicas + (1 if kind == "tanaka" else 0)  # the tanaka finalizer re-simulates
    assert layers["particles.simulate_calls"] == sims
    assert layers["particles.steps"] == sims * n_steps
    assert layers["rng.offspring_draws"] == layers["particles.events"]
    assert layers["harness.replica_samples"] == cfg.replicas
    assert (layers["tanaka.exp_kernel_sums_calls"] > 0) == (kind == "tanaka")
    assert (layers["loglaplace.picard_iterations"] > 0) == (kind == "duality")
    assert layers["harness.self_s"] >= 0.0
    assert 0.0 < layers["harness.pool_efficiency"] <= 1.0
