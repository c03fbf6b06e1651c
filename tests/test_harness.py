"""Configuration parsing, experiment orchestration, determinism, merging,
censoring, and the CLI surface."""
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.cli import main as cli_main
from sbmlab.config import (
    KINDS,
    ExperimentConfig,
    canonical_lines,
    config_hash,
    load_config,
    parse_config_text,
)
from sbmlab.errors import ConfigError
from sbmlab.harness import REGISTRY, merge_reports, run_experiment
from sbmlab.particles import dt_at_cap, make_params

MINIMAL = """
beta = 0.5
n_scale = 200
t_end = 0.1
seed = 5
replicas = 6
"""


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
_POSITIVE = st.floats(1e-6, 1e3)
# a value of each annotation; the fields validate() constrains are drawn
# from their domains below
_BY_TYPE = {
    "int": st.integers(0, 10**6),
    "float": _FLOATS,
    "float | None": st.none(),
    "str": st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=12),
    "str | None": st.none(),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=4).map(tuple),
}
_DOMAINS = {
    "beta": st.floats(0.01, 0.99),
    "n_scale": st.integers(1, 10**6),
    "t_end": st.floats(0.0, 10.0),
    "dim": st.sampled_from((1, 2)),
    "replicas": st.integers(1, 10**6),
    "seed": st.integers(0, 2**64 - 1),
    "workers": st.integers(1, 64),
    "save_paths": st.sampled_from(("none", "first", "all")),
    "lam": _POSITIVE,
    "bandwidth": _POSITIVE,
    "distances": st.lists(_POSITIVE, max_size=4).map(tuple),
    "solver_nx": st.integers(8, 10**4),
    "solver_nt": st.integers(1, 10**4),
}


@st.composite
def valid_configs(draw, kind):
    values = {
        f.name: draw(_DOMAINS.get(f.name, _BY_TYPE[f.type]))
        for f in fields(ExperimentConfig)
    }
    values["kind"] = kind
    cap = dt_at_cap(values["beta"], values["n_scale"])
    values["dt"] = draw(st.one_of(st.none(), st.floats(1e-3, 1.0).map(lambda u: u * cap)))
    values["q_moment"] = 1.0 + draw(st.floats(0.01, 0.99)) * values["beta"]
    values["x1"], values["x2"] = sorted((values["x1"], values["x2"]))
    lo, hi = sorted((values["solver_x_min"], values["solver_x_max"]))
    values["solver_x_min"], values["solver_x_max"] = lo, hi + 1.0
    if kind == "unbounded2d":
        values["dim"] = 2
    return ExperimentConfig(**values)


class TestConfig:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_canonical_lines_round_trip(self, kind, data):
        cfg = data.draw(valid_configs(kind))
        assert cfg.validate() == []
        back = parse_config_text("\n".join(canonical_lines(cfg)))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_minimal_parses_with_defaults(self):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        assert cfg.kind == "simulate"
        assert cfg.n_scale == 200
        assert cfg.dim == 1
        assert cfg.lam == 1.0
        params = make_params(cfg.beta, cfg.n_scale, cfg.t_end, dt=cfg.dt)
        assert params.dt * params.branch_rate <= 0.1 * (1 + 1e-9)

    def test_sections_scope_by_kind(self):
        text = MINIMAL + "\n[jumps]\nreplicas = 44\n[duality]\nreplicas = 55\n"
        assert parse_config_text(text, kind="jumps").replicas == 44
        assert parse_config_text(text, kind="duality").replicas == 55
        assert parse_config_text(text, kind="simulate").replicas == 6

    def test_dt_cap_violation_names_both(self):
        text = MINIMAL + "\ndt = 0.05\nn_scale = 10000\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="simulate")
        msg = "\n".join(err.value.violations)
        assert "branch_rate" in msg and "dt" in msg

    def test_negative_n_scale_with_dt_is_a_config_error(self):
        # the dt cap is not evaluated at a negative scale (n_scale**beta is complex)
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 0.5\nn_scale = -5\ndt = 0.001\n", kind="simulate")
        assert any("n_scale" in v for v in err.value.violations)

    def test_beta_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 1.0", kind="simulate")
        assert any("beta" in v for v in err.value.violations)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 0.5\nfrobnicate = 3\nwibble = x\n", kind="simulate")
        msg = "\n".join(err.value.violations)
        assert "frobnicate" in msg and "wibble" in msg

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 1.4\nreplicas = 0\ndim = 5\n", kind="simulate")
        assert len(err.value.violations) >= 3

    def test_seed_outside_64_bits_rejected(self):
        # streams key on the seed's low 64 bits: wider seeds would alias
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError) as err:
                parse_config_text(MINIMAL.replace("seed = 5", f"seed = {seed}"), kind="simulate")
            assert any("seed" in v for v in err.value.violations)
        parse_config_text(MINIMAL.replace("seed = 5", f"seed = {2**64 - 1}"), kind="simulate")

    def test_replica_indices_below_retry_streams(self):
        # retry attempt a of replica i runs on stream i + a * 2^32
        parse_config_text(MINIMAL + f"replica_start = {2**32 - 6}\n", kind="simulate")
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + f"replica_start = {2**32 - 5}\n", kind="simulate")
        assert any("replica_start + replicas" in v for v in err.value.violations)

    def test_duality_solver_grid_rejected(self):
        # these used to pass validation, simulate every replica and then fail
        # in the finalizer with a bare ValueError, losing all the records
        text = MINIMAL + "solver_nx = 4\nsolver_nt = 0\nsolver_x_min = 2\nsolver_x_max = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="duality")
        msg = "\n".join(err.value.violations)
        assert "solver_nx" in msg and "solver_nt" in msg and "solver_x_min" in msg
        parse_config_text(text, kind="simulate")  # the solver keys concern duality only

    def test_lambda_alias(self):
        cfg = parse_config_text("beta = 0.5\nlambda = 2.5\n", kind="tanaka")
        assert cfg.lam == 2.5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_missing_measure_file(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 0.5\ninitial_measure = /no/such.txt",
                              kind="simulate")
        assert any("initial_measure" in v for v in err.value.violations)

    def test_hash_ignores_replica_range(self):
        a = parse_config_text(MINIMAL, kind="simulate")
        b = parse_config_text(MINIMAL.replace("replicas = 6", "replicas = 60"),
                              kind="simulate")
        b.replica_start = 6
        b.out = "elsewhere"
        assert config_hash(a) == config_hash(b)
        c = parse_config_text(MINIMAL.replace("seed = 5", "seed = 6"), kind="simulate")
        assert config_hash(a) != config_hash(c)


class TestRunExperiment:
    def test_single_replica_t_zero(self, tmp_path):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.t_end = 0.0
        cfg.replicas = 1
        cfg.out = str(tmp_path / "run")
        rep = run_experiment(cfg)
        assert rep.replicas == 1
        assert rep.merged["final_mass"]["mean"] == 1.0
        assert rep.merged["total_occupation"]["mean"] == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.out = str(tmp_path / "runA")
        run_experiment(cfg)
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "runA").iterdir()
        }
        run_experiment(cfg)  # same out dir: overwrites atomically
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "runA").iterdir()
        }
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_worker_count_invariance(self, tmp_path):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.out = str(tmp_path / "w1")
        rep1 = run_experiment(cfg)
        cfg2 = parse_config_text(MINIMAL, kind="simulate")
        cfg2.workers = 3
        cfg2.out = str(tmp_path / "w3")
        rep3 = run_experiment(cfg2)
        assert rep1.merged == rep3.merged
        assert (tmp_path / "w1" / "records.jsonl").read_text() == (
            tmp_path / "w3" / "records.jsonl"
        ).read_text()

    def test_censoring_counts_and_degrades(self, tmp_path):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.particle_cap = 205  # tiny: frequent cap hits, resampled
        cfg.replicas = 12
        cfg.out = str(tmp_path / "cens")
        rep = run_experiment(cfg)
        assert rep.censoring_rate > 0.05
        assert rep.status == "degraded"
        assert rep.replicas == 12  # batch never aborts

    def test_schema_headers_and_hash_in_artifacts(self, tmp_path):
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.out = str(tmp_path / "run")
        rep = run_experiment(cfg)
        table = (tmp_path / "run" / "simulate_summary.csv").read_text().splitlines()
        assert table[0].startswith("# schema=sbmlab.simulate.v1 config=")
        assert rep.config_hash in table[0]


class TestMerge:
    def _run_ranges(self, tmp_path, ranges, kind="simulate"):
        outs = []
        for k, (start, count) in enumerate(ranges):
            cfg = parse_config_text(MINIMAL, kind=kind)
            cfg.replica_start = start
            cfg.replicas = count
            cfg.out = str(tmp_path / f"part{k}")
            run_experiment(cfg)
            outs.append(tmp_path / f"part{k}")
        return outs

    def test_merge_identity(self, tmp_path):
        (out,) = self._run_ranges(tmp_path, [(0, 6)])
        merged = merge_reports([out], tmp_path / "m")
        single = json.loads((out / "report.json").read_text())
        assert merged.merged == single["merged"]

    def test_merge_commutes_and_pools(self, tmp_path):
        a, b = self._run_ranges(tmp_path, [(0, 3), (3, 3)])
        ab = merge_reports([a, b], tmp_path / "ab")
        ba = merge_reports([b, a], tmp_path / "ba")
        assert ab.merged == ba.merged
        cfg = parse_config_text(MINIMAL, kind="simulate")
        cfg.out = str(tmp_path / "full")
        full = run_experiment(cfg)
        assert ab.merged == full.merged

    def test_tanaka_halves_merge_to_full_run(self, tmp_path):
        # the panel table is re-simulated from the lowest merged replica
        a, b, full = self._run_ranges(tmp_path, [(0, 3), (3, 3), (0, 6)], kind="tanaka")
        merged = merge_reports([a, b], tmp_path / "m")
        single = json.loads((full / "report.json").read_text())
        assert merged.merged == single["merged"]
        assert merged.extra == single["extra"]
        assert (tmp_path / "m" / "tanaka_panel.csv").read_bytes() == (
            full / "tanaka_panel.csv"
        ).read_bytes()

    def test_merge_rejects_hash_mismatch(self, tmp_path):
        (a,) = self._run_ranges(tmp_path, [(0, 3)])
        cfg = parse_config_text(MINIMAL.replace("seed = 5", "seed = 9"), kind="simulate")
        cfg.out = str(tmp_path / "other")
        run_experiment(cfg)
        with pytest.raises(ConfigError):
            merge_reports([a, tmp_path / "other"], tmp_path / "m")

    def test_merge_rejects_overlap(self, tmp_path):
        a, b = self._run_ranges(tmp_path, [(0, 3), (2, 3)])
        with pytest.raises(ConfigError):
            merge_reports([a, b], tmp_path / "m")


class TestCli:
    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("beta = 1.5\n")
        assert cli_main(["simulate", "--config", str(bad)]) == 2

    def test_simulate_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text(MINIMAL)
        rc = cli_main(
            ["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert (tmp_path / "o" / "report.json").exists()

    def test_criterion_kind(self, tmp_path):
        rc = cli_main(
            ["criterion", "--out", str(tmp_path / "c"), "--check"]
        )
        assert rc == 0
        text = (tmp_path / "c" / "criterion.txt").read_text()
        assert "q_a_convergent = True" in text

    def test_holder_kind(self, tmp_path):
        rc = cli_main(["holder", "--out", str(tmp_path / "h")])
        assert rc == 0
        rep = json.loads((tmp_path / "h" / "report.json").read_text())
        assert abs(rep["extra"]["exponent"] - 0.5) < 0.12

    def test_check_failure_exit_code(self, tmp_path):
        cfgfile = tmp_path / "j.cfg"
        # deliberately under-resolved jump experiment: z-scores will wobble
        cfgfile.write_text(
            "beta = 0.5\nn_scale = 100\nt_end = 0.05\nseed = 1\nreplicas = 3\n"
            "jump_units = 2 10 3\n"
        )
        rc = cli_main(
            ["jumps", "--config", str(cfgfile), "--out", str(tmp_path / "j"), "--check"]
        )
        assert rc in (0, 4)  # exercised path; tiny runs may pass or fail checks

    def test_merge_subcommand(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text(MINIMAL)
        cli_main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "p0")])
        rc = cli_main(
            ["merge", str(tmp_path / "p0"), "--out", str(tmp_path / "m")]
        )
        assert rc == 0


_PARTICLES = "n_scale = 200\nt_end = 0.1\nreplicas = 4\n"


def _panel_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()[1:]  # the schema line
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class TestTanakaPanel:
    # x_eval 0.25 and 0.5 are off the 11-point panel; bandwidth 2 reaches
    # past the default histogram [-8, 8], and 7.9 + 5 * 0.02 reaches its
    # last edge, which arange rounds to 7.99999999999966
    @pytest.mark.parametrize(
        "settings_text",
        [
            "x_panel = -1 1 11\nbandwidth = 0.2\n",
            "bandwidth = 2\n",
            "x_eval = 0.25 7.9\nbandwidth = 0.02\n",
        ],
        ids=["off-panel", "wide-bandwidth", "histogram-edge"],
    )
    def test_records_do_not_depend_on_snapshot_storage(self, settings_text, tmp_path):
        outs = []
        for stride in (1, 10**9):
            cfg = parse_config_text(
                f"beta = 0.5\nseed = 3\n{_PARTICLES}{settings_text}snapshot_stride = {stride}\n",
                kind="tanaka",
            )
            cfg.out = str(tmp_path / f"stride{stride}")
            run_experiment(cfg)
            outs.append(tmp_path / f"stride{stride}")
        assert (outs[0] / "records.jsonl").read_bytes() == (outs[1] / "records.jsonl").read_bytes()
        first = json.loads((outs[0] / "records.jsonl").read_text().splitlines()[0])
        rows = _panel_rows(outs[0] / "tanaka_panel.csv")
        for x in cfg.x_eval:
            (row,) = [r for r in rows if r["x"] == x and r["lambda"] == cfg.lam]
            assert row["local_time"] == first[f"L_tanaka:lam=1:x={x:g}"]


TINY = {
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


def strict_json(text: str):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestRegistry:
    @pytest.mark.parametrize("kind", list(REGISTRY))
    def test_kind_runs_strict_listed_and_reproducible(self, kind, tmp_path):
        cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{TINY[kind]}", kind=kind)
        out = tmp_path / kind
        cfg.out = str(out)
        run_experiment(cfg)
        report = strict_json((out / "report.json").read_text())
        paths = ("events-replica", "snapshots-replica")  # simulate's save_paths files
        tables = {p.name for p in out.iterdir() if not p.name.startswith(paths)}
        assert sorted(tables) == report["artifacts"]
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(cfg)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_stabletails_default_horizon_is_finite_json(self, tmp_path):
        # at t = 0.5 the oracle depths used to be those of t = 1, where the
        # oracle underflows to 0 and its slope came out NaN
        cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{TINY['stabletails']}", kind="stabletails")
        cfg.out = str(tmp_path / "st")
        assert cfg.t_end == 0.5
        run_experiment(cfg)
        report = strict_json((tmp_path / "st" / "report.json").read_text())
        assert abs(report["extra"]["oracle_slope_deep"] - 3.0) < 0.25
        # too few replicas to resolve the MC window: reported as null, and
        # the run says so in its status
        assert report["extra"]["mc_slope_resolved"] is None
        assert report["status"] == "degraded"
