"""Configuration parsing, experiment orchestration, determinism, merging,
censoring, and the CLI surface."""
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbmlab
from sbmlab.cli import main as cli_main
from sbmlab.config import (
    ExperimentConfig,
    canonical_lines,
    config_hash,
    load_config,
    parse_config_text,
)
from sbmlab.continuity import holder_exponent, probe_functionals, unboundedness_probe
from sbmlab.errors import ConfigError
from sbmlab import harness
from sbmlab.harness import (
    REGISTRY,
    SYNTHETIC_FIELDS,
    RunReport,
    check_report,
    merge_reports,
    run_experiment,
)
from sbmlab.measures import dirac
from sbmlab.particles import dt_at_cap, make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.tanaka import tanaka_event_functional, tanaka_panel_functional, tanaka_panel_terms

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
    "particle_cap": st.integers(1, 10**7),
    "snapshot_stride": st.integers(1, 10**9),
    "lam": _POSITIVE,
    "lam_alt": _POSITIVE,
    "bandwidth": _POSITIVE,
    # theta = 0 is the exact case of the timechange kind
    "theta_grid": st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4).map(tuple),
    # moments pairs c +- d/2 on the edges of its clock histogram (bins of 1/80)
    "distances": st.lists(st.integers(1, 80), min_size=2, max_size=4, unique=True).map(
        lambda ks: tuple(k / 40 for k in ks)
    ),
    "pair_centers": st.lists(st.integers(-400, 400).map(lambda k: k / 80), min_size=1,
                             max_size=4).map(tuple),
    "phi_height": st.floats(0.0, 1e3),
    "phi_ramp": _POSITIVE,
    "solver_nx": st.integers(8, 10**4),
    "solver_nt": st.integers(1, 10**4),
    "k_window": _POSITIVE,
    "n_max": st.integers(16, 10**4),
    "r_grid": st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    # lo < hi, a whole count >= 2 (or the default panel)
    "x_panel": st.one_of(
        st.just(()),
        st.tuples(_FLOATS, _POSITIVE, st.integers(2, 10**4)).map(
            lambda v: (v[0], v[0] + v[1], float(v[2]))),
    ),
    "jump_units": st.tuples(_POSITIVE, _POSITIVE, st.integers(1, 100).map(float)),
    # lo <= 2^j and hi >= 2^(j+2): three dyadic lags at least, below the
    # holder kind's 4096-point synthetic field
    "holder_lags": st.integers(0, 9).flatmap(
        lambda j: st.tuples(st.integers(1, 2**j), st.integers(2 ** (j + 2), 2**24))
    ).map(lambda v: tuple(map(float, v))),
    "window": st.tuples(_FLOATS, _POSITIVE).map(lambda v: (v[0], v[0] + v[1])),
    # distinct as the probe histograms' names print them
    "resolutions": st.lists(_POSITIVE, min_size=1, max_size=4,
                            unique_by=lambda h: f"{h:g}").map(tuple),
    "holder_synthetic": st.sampled_from(tuple(SYNTHETIC_FIELDS)),
}


@st.composite
def valid_configs(draw, kind):
    values = {
        f.name: draw(_DOMAINS.get(f.name, _BY_TYPE[f.type]))
        for f in fields(ExperimentConfig)
    }
    values["kind"] = kind
    cap = dt_at_cap(values["beta"], values["n_scale"])
    # at most half the cap: the step that divides t_end is then at most the cap
    values["dt"] = draw(st.one_of(st.none(), st.floats(1e-3, 0.5).map(lambda u: u * cap)))
    values["q_moment"] = 1.0 + draw(st.floats(0.01, 0.99)) * values["beta"]
    values["x1"], values["x2"] = sorted((values["x1"], values["x2"]))
    if kind == "tanaka" and values["lam_alt"] == values["lam"]:
        values["lam_alt"] = 2.0 * values["lam"]
    if kind == "tanaka":  # every panel point within 300 / sqrt(2 lam) of 0
        reach = 300.0 / math.sqrt(2.0 * max(values["lam"], values["lam_alt"]))
        near = st.floats(-reach, reach)
        values["x_eval"] = draw(st.lists(near, min_size=1, max_size=4).map(tuple))
        values["x_panel"] = draw(st.one_of(st.just(()), st.tuples(
            near, near, st.integers(2, 10**4)).filter(lambda v: v[0] < v[1]).map(
            lambda v: (v[0], v[1], float(v[2])))))
    lo, hi = sorted((values["solver_x_min"], values["solver_x_max"]))
    values["solver_x_min"], values["solver_x_max"] = lo, hi + 1.0
    lo, hi = sorted((values["phi_a"], values["phi_b"]))
    values["phi_a"], values["phi_b"] = lo, hi + 1.0
    if kind in ("duality", "tanaka", "moments", "timechange"):  # defined in d = 1 only
        values["dim"] = 1
    if kind == "duality":  # the solver needs a horizon > 0
        values["t_end"] = draw(st.floats(0.0, 10.0, exclude_min=True))
    return ExperimentConfig(**values)


class TestConfig:
    @pytest.mark.parametrize("kind", tuple(REGISTRY))
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

    @pytest.mark.parametrize(
        "kind, setting, key",
        [
            ("simulate", "particle_cap = 0", "particle_cap"),
            ("simulate", "snapshot_stride = 0", "snapshot_stride"),
            # dt at the cap, but t_end / dt = 47.4 rounds to 47 steps, whose
            # dt is above it
            ("simulate", f"n_scale = 1000\ndt = {dt_at_cap(0.5, 1000)!r}", "branch_rate"),
            ("criterion", "n_max = 3", "n_max"),
            ("criterion", "k_window = -1", "k_window"),
            ("criterion", "r_grid = 1 -10 100", "r "),  # gave a NaN trend value
            ("unbounded2d", "resolutions = 0.1 0.1", "resolutions"),  # duplicate names
            ("holder", "holder_synthetic = nope", "holder_synthetic"),
        ],
    )
    def test_rule_of_the_run_is_a_config_error(self, kind, setting, key):
        # each passed validation and then raised inside the run, after the
        # out directory was made
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + setting + "\n", kind=kind)
        assert any(v.startswith(key) for v in err.value.violations)

    def test_beta_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 1.0", kind="simulate")
        assert any("beta" in v for v in err.value.violations)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("beta = 0.5\nfrobnicate = 3\nwibble = x\n", kind="simulate")
        msg = "\n".join(err.value.violations)
        assert "frobnicate" in msg and "wibble" in msg

    def test_the_deleted_stabletails_kind_and_keys_are_rejected(self):
        # criterion 10 is the stable-tail experiment (docs/decisions.md)
        for text in ("path_steps = 256\n", "inf_x_values = 1.5 2\n", "[stabletails]\n"):
            with pytest.raises(ConfigError):
                parse_config_text(MINIMAL + text, kind="simulate")
        with pytest.raises(SystemExit) as exc:
            cli_main(["stabletails"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize(
        "kind, setting, key",
        [
            ("jumps", "jump_units = 40 400 -1", "jump_units"),  # np.logspace raised
            ("jumps", "jump_units = 40 400", "jump_units"),  # the unpacking raised
            ("jumps", "jump_units = 0 400 6", "jump_units"),  # log10(0): NaN levels
            ("holder", "holder_lags = 4", "holder_lags"),
            ("holder", "holder_lags = 4 8", "holder_lags"),  # two dyadic lags
            ("tanaka", "holder_lags = 4", "holder_lags"),  # the fit of H unpacks them
            ("unbounded2d", "dim = 2\nwindow = 1", "window"),
            ("unbounded2d", "dim = 2\nresolutions = 0.1 0", "resolutions"),
            ("tanaka", "x_panel = -1 1", "x_panel"),  # used the default panel
            ("tanaka", "x_panel = -1 1 10.5", "x_panel"),
            # two dyadic lags below the 4096-point field: ValueError in holder_exponent
            ("holder", "holder_lags = 1024 4096", "holder_lags"),
            # a * half-width = 980: NumericsError in exp_kernel_sums
            ("tanaka", "x_panel = -400 400 11\nlam = 2\nlam_alt = 3", "x_panel"),
            ("criterion", "r_grid =", "r_grid"),  # IndexError on the empty trend
            # a ComplexWarning dropped the imaginary parts, and --check passed
            ("timechange", "theta_grid = -1", "theta_grid"),
            ("timechange", "theta_grid =", "theta_grid"),  # an ok report with no z
            ("tanaka", "x_eval = nan", "x_eval"),  # UsageError: not a panel point
            ("tanaka", "x_eval =", "x_eval"),  # ValueError: the kernel estimate's empty grid
            # a far x_eval breaks the panel's kernel sums: it was blamed on x_panel
            ("tanaka", "x_eval = 0.25 1000000", "x_eval"),
            # a * half-width = 990 on the pair endpoints: NumericsError in the
            # moments kind's event panel
            ("moments", "lam = 1000000", "lam"),
        ],
    )
    def test_tuple_key_the_kind_unpacks_is_checked(self, kind, setting, key, tmp_path):
        # each passed validation, and then failed inside the run or ran on
        # other values than the ones given
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + setting + "\n", kind=kind)
        assert any(v.startswith(key) for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(MINIMAL + setting + "\n")
        assert cli_main([kind, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        parse_config_text(MINIMAL + setting + "\n", kind="simulate")  # a key of other kinds

    @pytest.mark.parametrize(
        "values, rule",
        [
            ("1,2,3,4,5\n", "at least 64"),  # holder_exponent raised a bare ValueError
            ("1,2,x\n", "comma-separated numbers"),
            (",".join(["0.5"] * 100) + "\n", "constant"),
            (",".join(["1", "nan"] * 50) + "\n", "finite"),
        ],
        ids=["short", "unparseable", "constant", "nan"],
    )
    def test_holder_input_the_fit_rejects_is_a_config_error(self, values, rule, tmp_path):
        field_file = tmp_path / "field.csv"
        field_file.write_text(values)
        text = MINIMAL + f"holder_input = {field_file}\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="holder")
        assert any(v.startswith("holder_input") and rule in v for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert cli_main(["holder", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        parse_config_text(text, kind="simulate")  # the field concerns the holder kind only

    @pytest.mark.parametrize(
        "measure, where",
        [
            # float() and int() raised bare ValueErrors, naming neither file nor line
            ("atoms 1\n0.0 abc\ndensity 0\n", "at line 2"),
            ("atoms x\n", "at line 1"),
            ("atoms 2\n0.0 1.0\n", "truncated"),
            ("atoms 0\ndensity 0\n", "positive total mass"),  # ValueError in init_particles
        ],
        ids=["unparseable", "unparseable-count", "truncated", "zero-mass"],
    )
    def test_initial_measure_that_does_not_load_is_a_config_error(self, measure, where,
                                                                   tmp_path):
        # each passed validation and then raised in the first replica, after
        # the out directory was made; the message names the file and where
        path = tmp_path / "mu.txt"
        path.write_text(measure)
        text = MINIMAL + f"initial_measure = {path}\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="simulate")
        assert any(v.startswith("initial_measure") and str(path) in v and where in v
                   for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert cli_main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            # smoothed_indicator raised in the first replica's record
            (MINIMAL + "phi_a = 1\nphi_b = -1\n", "phi_a"),
            (MINIMAL + "phi_ramp = 0\n", "phi_ramp"),
            # solve_mild raised in the finalizer, after every replica ran
            (MINIMAL + "phi_height = -0.5\n", "phi_height"),
            (MINIMAL.replace("t_end = 0.1", "t_end = 0"), "t_end"),
        ],
        ids=["a-above-b", "zero-ramp", "negative-height", "zero-horizon"],
    )
    def test_duality_phi_and_horizon_are_checked(self, text, key, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="duality")
        assert any(v.startswith(key) for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert cli_main(["duality", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        parse_config_text(text, kind="simulate")  # the phi keys concern duality only

    @pytest.mark.parametrize("kind", ["duality", "tanaka", "moments", "timechange"])
    def test_dim_2_of_a_d1_kind_is_a_config_error(self, kind, tmp_path):
        # tanaka, moments and timechange raised UsageError in the first
        # replica's record, after the out directory was made; duality summed
        # the 1-D phi over both coordinates and compared that with the 1-D
        # solver, reporting ok with a wrong answer
        text = MINIMAL + "dim = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind=kind)
        assert any(v.startswith("dim") for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert cli_main([kind, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        parse_config_text(text, kind="unbounded2d")  # d = 2 is the probe's own case

    @pytest.mark.parametrize("kind", ["timechange", "moments", "tanaka"])
    @pytest.mark.parametrize("setting", ["lam = nan", "lam = inf", "lam_alt = nan",
                                         "lam_alt = inf", "bandwidth = nan", "bandwidth = inf"])
    def test_resolvent_rate_and_bandwidth_must_be_finite(self, kind, setting, tmp_path):
        # NaN passed every `<= 0` rule: a NaN lam matched no registered
        # functional (UsageError in the record), a NaN or inf bandwidth made
        # numpy raise ValueError, and an unread lam_alt ran to an ok report
        text = MINIMAL + setting + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind=kind)
        key = setting.split(" = ")[0]
        assert any(v.startswith(f"{key} must be finite and > 0") for v in err.value.violations)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert cli_main([kind, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_duality_solver_grid_rejected(self):
        # these used to pass validation, simulate every replica and then fail
        # in the finalizer with a bare ValueError, losing all the records
        text = MINIMAL + "solver_nx = 4\nsolver_nt = 0\nsolver_x_min = 2\nsolver_x_max = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, kind="duality")
        msg = "\n".join(err.value.violations)
        assert "solver_nx" in msg and "solver_nt" in msg and "solver_x_min" in msg
        parse_config_text(text, kind="simulate")  # the solver keys concern duality only

    @pytest.mark.parametrize("kind", ["tanaka", "timechange"])
    def test_nonpositive_lam_alt_rejected(self, kind):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "lam_alt = -1\n", kind=kind)
        assert any("lam_alt" in v for v in err.value.violations)

    def test_tanaka_lam_alt_equal_to_lam_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "lam = 1.5\nlam_alt = 1.5\n", kind="tanaka")
        assert any("lam_alt" in v for v in err.value.violations)
        parse_config_text(MINIMAL + "lam = 1.5\nlam_alt = 1.5\n", kind="timechange")

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

    def test_timechange_worker_count_invariance(self, tmp_path):
        # replicas are handed out one at a time, so which worker runs which
        # differs between runs; the artifacts must not
        outputs = {}
        for workers in (1, 3):
            cfg = parse_config_text(MINIMAL + f"workers = {workers}\n", kind="timechange")
            cfg.out = str(tmp_path / f"w{workers}")
            run_experiment(cfg)
            outputs[workers] = {
                name: (tmp_path / f"w{workers}" / name).read_bytes()
                for name in ("records.jsonl", "timechange.csv")
            }
        assert outputs[1] == outputs[3]

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


def _scipy_modules_after(code: str) -> str:
    """Run code in a fresh interpreter that imports this sbmlab, and return
    what it prints last: the sorted names of the loaded scipy modules,
    numpy.ma if it is loaded (np.unique imports it on its first call), and
    multiprocessing if it is loaded (a process pool imports it)."""
    src = str(Path(sbmlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code += (
        "\nimport sys; print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m in ('numpy.ma', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return out.stdout.strip().splitlines()[-1]


class TestCli:
    def test_import_loads_no_scipy(self):
        # scipy's import is about half of the start-up time; only the holder
        # fit, criterion 10's first-passage oracle and the Green's function
        # oracle use it, and they import it where they call it
        assert _scipy_modules_after("import sbmlab.cli") == "[]"

    def test_particle_and_duality_runs_load_no_scipy(self, tmp_path):
        # tanaka also at its default panel, which gets no Holder fit
        runs = [(kind, TINY[kind]) for kind in
                ("simulate", "tanaka", "timechange", "duality", "moments", "jumps")]
        calls = []
        for k, (kind, text) in enumerate(runs + [("tanaka", _PARTICLES)]):
            cfgfile = tmp_path / f"{k}.cfg"
            cfgfile.write_text(f"beta = 0.5\nseed = 3\n{text}")
            calls.append([kind, "--config", str(cfgfile), "--out", str(tmp_path / str(k))])
        code = (
            "from sbmlab.cli import main\n"
            f"for argv in {calls!r}:\n"
            "    assert main(argv) == 0, argv"
        )
        assert _scipy_modules_after(code) == "[]"

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


    def test_table_is_drawn_on_the_records_attempt(self, tmp_path):
        # replica 0 hits the cap on attempt 0 and succeeds on attempt 1; the
        # table was drawn on attempt 0's stream, which raised in the finalizer
        cfgfile = tmp_path / "retry.cfg"
        cfgfile.write_text("beta = 0.5\nseed = 2\nn_scale = 200\nt_end = 0.1\nreplicas = 1\n"
                           "particle_cap = 260\nmax_retries = 6\nx_panel = -1 1 11\n")
        out = tmp_path / "t"
        assert cli_main(["tanaka", "--config", str(cfgfile), "--out", str(out)]) == 3
        (record,) = _records(out)
        assert record["_retries"] == 1.0
        rows = _panel_rows(out / "tanaka_panel.csv")
        for x in (0.25, 0.5):
            for lam in (1.0, 2.0):
                (row,) = [r for r in rows if r["x"] == x and r["lambda"] == lam]
                assert row["local_time"] == record[f"L_tanaka:lam={lam:g}:x={x:g}"]


def _records(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]


_FIT_KEYS = ("holder_exponent:lam=1", "holder_ci_low:lam=1", "holder_ci_high:lam=1",
             "holder_covers:lam=1")


class TestTanakaHolderFit:
    def test_uniform_panel_records_the_fit_of_H(self, tmp_path):
        cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{_PARTICLES}x_panel = -1 1 65\n",
                                kind="tanaka")
        cfg.out = str(tmp_path / "t")
        run_experiment(cfg)
        xs = np.linspace(-1.0, 1.0, 65)
        mu, params = dirac(0.0), make_params(0.5, 200, 0.1)
        lams = (cfg.lam, cfg.lam_alt)
        fns = [tanaka_panel_functional(lams, xs), tanaka_event_functional(lams, xs)]
        for i, record in enumerate(_records(tmp_path / "t")):
            rec = simulate(mu, params, fns, RngStream(3, i), keep_path=False)
            fit = holder_exponent(tanaka_panel_terms(rec, mu, cfg.lam).deriv_field, (4, 64),
                                  dx=xs[1] - xs[0])
            assert [record[k] for k in _FIT_KEYS] == [
                fit.exponent, fit.ci_low, fit.ci_high, float(fit.covers(1.0 / 3.0))]

    @pytest.mark.parametrize("panel", ["", "x_panel = -1 1 65\nx_eval = 0.26\n"],
                             ids=["default", "x_eval-off-the-linspace"])
    def test_other_panels_record_no_fit(self, panel, tmp_path):
        cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{_PARTICLES}{panel}", kind="tanaka")
        cfg.out = str(tmp_path / "t")
        run_experiment(cfg)
        assert all(k not in record for record in _records(tmp_path / "t") for k in _FIT_KEYS)


def test_unbounded2d_at_dim_1_records_the_probe(tmp_path):
    # the continuous control: the window is the interval (lo, hi) itself
    cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{_PARTICLES}dim = 1\n", kind="unbounded2d")
    cfg.out = str(tmp_path / "u")
    run_experiment(cfg)
    fns = probe_functionals(1, cfg.resolutions, cfg.window)
    for i, record in enumerate(_records(tmp_path / "u")):
        rec = simulate(dirac(0.0), make_params(0.5, 200, 0.1), fns, RngStream(3, i),
                       keep_path=False)
        table = unboundedness_probe(rec, cfg.resolutions, cfg.window)
        assert {f"max_density:h={h:g}": v for h, v in table} == {
            k: v for k, v in record.items() if k.startswith("max_density")}


def _digest_configs() -> dict[str, str]:
    """The tiny per-kind settings of docs/artifact_digests.py, whose digests
    tests/test_artifact_digests.py checks."""
    script = Path(__file__).resolve().parents[1] / "docs" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


TINY = _digest_configs()


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

    @pytest.mark.parametrize("kind", list(REGISTRY))
    def test_kind_returns_its_tables_and_writes_nothing(self, kind, tmp_path, monkeypatch):
        # finalize and run are pure functions: the report's artifacts are the
        # tables they return, which _write_report writes, and its two files
        cfg = parse_config_text(f"beta = 0.5\nseed = 3\n{TINY[kind]}", kind=kind)
        cfg.out = str(tmp_path / "run")
        report = run_experiment(cfg)
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        if REGISTRY[kind].run is None:
            records = {r.pop("replica"): r for r in _records(tmp_path / "run")}
            _, tables = REGISTRY[kind].finalize(cfg, records, harness._merge_records(records))
        else:
            _, _, tables = REGISTRY[kind].run(cfg)
        assert list(empty.iterdir()) == []
        assert sorted([*tables, "records.jsonl", "report.json"]) == report.artifacts

    @pytest.mark.parametrize("kind", [k for k, v in REGISTRY.items() if v.run is None])
    def test_keeping_everything_changes_no_artifact(self, kind, tmp_path, monkeypatch):
        # only the simulate kind keeps the path (keep_path = Kind.saves_paths);
        # with the path kept by every simulate call, every artifact must be
        # byte for byte the same (the simulate kind keeps it either way: its
        # record reads the event log)
        text = f"beta = 0.5\nseed = 3\n{TINY[kind]}snapshot_stride = 3\n"
        outputs = []
        for forced in (None, True):
            if forced:
                monkeypatch.setattr(harness, "simulate",
                                    lambda *args, keep_path: simulate(*args, keep_path=True))
            cfg = parse_config_text(text, kind=kind)
            cfg.out = str(tmp_path / "out")  # report.json holds it
            run_experiment(cfg)
            outputs.append({p.name: p.read_bytes() for p in Path(cfg.out).iterdir()})
            shutil.rmtree(cfg.out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", [k for k, v in REGISTRY.items() if v.run is None])
    def test_every_replica_failed_is_a_degraded_report(self, kind, tmp_path):
        # duality, tanaka, moments, jumps and unbounded2d raised in their
        # finalizers, which read keys or a path that no failed replica has
        cfgfile = tmp_path / "capped.cfg"
        cfgfile.write_text(f"beta = 0.5\nseed = 3\n{TINY[kind]}particle_cap = 5\n")
        out = tmp_path / "run"
        assert cli_main([kind, "--config", str(cfgfile), "--out", str(out)]) == 3
        assert cli_main(["merge", str(out), "--out", str(tmp_path / "merged")]) == 3
        for path in (out, tmp_path / "merged"):
            report = strict_json((path / "report.json").read_text())
            assert (report["status"], report["extra"], report["merged"]) == ("degraded", {}, {})
            assert report["artifacts"] == ["records.jsonl", "report.json"]
            assert all(r["_failed"] == 1.0 for r in _records(path))

    def test_moments_replica_without_events_writes_null(self, tmp_path):
        # at N = 1 a replica can reach t = 0.1 without branching: dM = 0 and
        # log|dM| = -inf, written as null; a merge reads the null back
        cfg = parse_config_text(
            "beta = 0.5\nseed = 3\nn_scale = 1\nt_end = 0.1\nreplicas = 3\n", kind="moments"
        )
        cfg.out = str(tmp_path / "m")
        # numpy warns of the log of 0 (record and slope) and of inf - inf (the se)
        with pytest.warns(RuntimeWarning):
            assert run_experiment(cfg).status == "degraded"
        records = (tmp_path / "m" / "records.jsonl").read_text()
        assert None in [strict_json(row)["log_increment:d=0.05"] for row in records.splitlines()]
        with pytest.warns(RuntimeWarning):
            merge_reports([tmp_path / "m"], tmp_path / "merged")
        assert (tmp_path / "merged" / "records.jsonl").read_text() == records


class TestCheckReport:
    def test_duality_null_z_read_back_fails(self, tmp_path):
        # one replica has se = 0, so z = inf, which report.json writes as null
        cfg = parse_config_text(
            f"beta = 0.5\nseed = 3\n{TINY['duality']}replicas = 1\n", kind="duality"
        )
        cfg.out = str(tmp_path / "d")
        run_experiment(cfg)
        report = RunReport.from_json((tmp_path / "d" / "report.json").read_text())
        assert report.extra["z_score"] is None
        assert check_report(report) == ["duality z-score null > 3"]

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("tanaka", {"lambda_diff_z:x=0": None}),
            ("jumps", {"z_scores": [0.5, None], "slope": -1.5}),
            ("jumps", {"z_scores": [0.5], "slope": None}),
            ("timechange", {"z_scores": [None], "t_bound_violations": 0}),
            ("moments", {"clock_slope": None, "log_slope": 0.55, "log_prediction": 0.6}),
            ("moments", {"clock_slope": 0.87, "log_slope": None, "log_prediction": 0.6}),
        ],
    )
    def test_null_headline_is_a_failure(self, kind, extra):
        lines = canonical_lines(parse_config_text("beta = 0.5", kind=kind))
        report = RunReport(kind=kind, config_hash="", config_lines=lines, replicas=1,
                           merged={}, extra=extra, censoring_rate=0.0, status="degraded",
                           artifacts=[])
        fails = check_report(report)
        assert len(fails) == 1 and ("None" in fails[0] or "null" in fails[0])
