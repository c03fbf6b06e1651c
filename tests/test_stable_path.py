"""Stable-path tail experiments and the interval time change (its
Laplace-curve check run through the harness)."""
import json
import math

import numpy as np
import pytest

from sbmlab.config import parse_config_text
from sbmlab.errors import UsageError
from sbmlab.harness import run_experiment
from sbmlab.measures import dirac
from sbmlab.particles import ModelParams, make_params, simulate
from sbmlab.rng import RngStream
from sbmlab.stable_path import (
    calibrate_smalljump_bound,
    compute_T,
    inf_tail_oracle,
    inf_tail_probability,
    interval_martingale,
    sup_smalljump_probability,
)
from sbmlab.tanaka import psi0, psi0_power_functional


class TestInfTail:
    def test_far_tail_empty(self):
        p = inf_tail_probability(0.5, 0.1, 50.0, 2000, RngStream(4, 0), steps=64)
        assert p == 0.0

    def test_monotone_in_x(self):
        stream = RngStream(5, 0)
        probs = [
            inf_tail_probability(0.5, 1.0, x, 8000, stream, steps=128)
            for x in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_matches_first_passage_oracle(self):
        # the skeleton min underestimates the true inf slightly; agreement
        # within a few percent plus MC error at 512 steps
        stream = RngStream(6, 0)
        for x in (1.5, 2.5):
            p_mc = inf_tail_probability(0.5, 1.0, x, 30000, stream, steps=512)
            p_ex = float(inf_tail_oracle(0.5, 1.0, x))
            se = math.sqrt(p_ex * (1 - p_ex) / 30000)
            assert abs(p_mc - p_ex) <= 0.08 * p_ex + 3 * se

    def test_oracle_deep_slope(self):
        xs = np.array([4.5, 7.0, 10.0, 15.0])
        ps = np.asarray(inf_tail_oracle(0.5, 1.0, xs))
        slope = np.polyfit(np.log(xs), np.log(-np.log(ps)), 1)[0]
        assert abs(slope - 3.0) < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            inf_tail_probability(0.5, 1.0, -1.0, 100, RngStream(0, 0))


class TestSupSmallJump:
    def test_large_y_reduces_to_sup(self):
        stream = RngStream(7, 0)
        p = sup_smalljump_probability(0.5, 0.1, 0.5, 1e6, 5000, stream, steps=128)
        assert p > 0.05

    def test_monotone_in_y(self):
        stream = RngStream(8, 0)
        probs = [
            sup_smalljump_probability(0.5, 0.1, 0.3, y, 8000, stream, steps=128)
            for y in (1.0, 0.3, 0.15, 0.075)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_calibration_holdout(self):
        rep = calibrate_smalljump_bound(
            0.5,
            calibration_grid=[(0.1, 0.5, 0.25), (0.1, 0.6, 0.3), (0.05, 0.3, 0.15)],
            holdout_grid=[(0.1, 0.3, 0.15), (0.2, 0.4, 0.2)],
            replicas=8000,
            stream=RngStream(9, 0),
            steps=128,
        )
        assert rep.c_fitted > 0
        assert rep.violations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_smalljump_probability(0.5, 1.0, 0.0, 1.0, 100, RngStream(0, 0))


def run_timechange(tmp_path, settings):
    """The harness timechange run on the small_recorders paths (seed 901,
    N = 500, t = 0.3, lambda = 0.5, [x1, x2] = [-0.1, 0.1]), with settings
    appended; returns (out_dir, report)."""
    cfg = parse_config_text(
        "beta = 0.5\nn_scale = 500\nt_end = 0.3\nseed = 901\nlam = 0.5\nx1 = -0.1\nx2 = 0.1\n"
        "snapshot_stride = 1000000000\n" + settings,
        kind="timechange",
    )
    cfg.out = str(tmp_path / "timechange")
    return tmp_path / "timechange", run_experiment(cfg)


def timechange_rows(out):
    """timechange.csv as a list of {column: float} rows."""
    header, *rows = (out / "timechange.csv").read_text().splitlines()[1:]
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


@pytest.fixture(scope="module")
def timechange_run(tmp_path_factory):
    return run_timechange(
        tmp_path_factory.mktemp("tc"), "replicas = 120\ntheta_grid = 0.5 1 2\n"
    )


class TestTimeChange:
    def test_compute_T_degenerate(self, small_recorders):
        _, _, recs = small_recorders
        assert compute_T(recs[0], 0.5, 0.2, 0.2) == 0.0

    def test_compute_T_unregistered(self, small_recorders):
        _, _, recs = small_recorders
        with pytest.raises(UsageError):
            compute_T(recs[0], 0.5, -0.3, 0.3)

    def test_T_nondecreasing_additive(self):
        # one stream at one step: the runs to t = 0.1 and 0.2 are the first
        # 34 and 68 steps of the run to t = 0.3
        fns = [psi0_power_functional(0.5, -0.1, 0.1, 0.5)]
        for i in range(10):
            t1, t2, t3 = (
                compute_T(simulate(dirac(0.0), ModelParams(0.5, 500, 0.3 / 102, t), fns,
                                   RngStream(901, i), keep_path=False), 0.5, -0.1, 0.1)
                for t in (0.1, 0.2, 0.3)
            )
            assert 0 <= t1 <= t2 <= t3

    def test_interval_martingale_unregistered(self, small_recorders):
        # one path, no fallback to the log: the terms must be registered
        _, params, recs = small_recorders
        with pytest.raises(UsageError, match="no psi0_event functional"):
            interval_martingale(recs[0], 0.5, -0.3, 0.3)
        bare = simulate(dirac(0.0), params, [], RngStream(901, 0))
        assert bare.event_locations.size > 0
        with pytest.raises(UsageError, match="no psi0_event functional"):
            interval_martingale(bare, 0.5, -0.1, 0.1)

    def test_psi0_event_sum_matches_direct(self, small_recorders):
        _, _, recs = small_recorders
        # the block-by-block total against the sum over the log, to rounding
        for rec in recs[:10]:
            terms = psi0(0.5, -0.1, 0.1, rec.event_locations) * rec.event_net_mass
            z = interval_martingale(rec, 0.5, -0.1, 0.1)
            assert abs(z - np.sum(terms)) <= 1e-12 * np.abs(terms).sum()

    def test_T_bound_every_replica(self, timechange_run):
        out, rep = timechange_run
        assert rep.extra["t_bound_violations"] == 0
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 120
        for r in records:
            assert 0.0 <= r["T_hat"] <= 2.0**1.5 * r["interval_occupation"] * (1 + 1e-12) + 1e-15

    def test_theta_zero_exact(self, tmp_path):
        out, rep = run_timechange(tmp_path, "replicas = 20\ntheta_grid = 0\n")
        (row,) = timechange_rows(out)
        assert row["lhs"] == 1.0 and row["rhs"] == 1.0 and row["product_mean"] == 1.0
        assert rep.extra["z_scores"] == [0.0]

    def test_degenerate_interval(self, tmp_path):
        out, _ = run_timechange(tmp_path, "replicas = 20\nx1 = 0.2\nx2 = 0.2\ntheta_grid = 0.5 1\n")
        rows = timechange_rows(out)
        assert len(rows) == 2
        assert all(row["lhs"] == 1.0 and row["rhs"] == 1.0 for row in rows)

    def test_laplace_curves_agree(self, timechange_run):
        _, rep = timechange_run
        assert max(rep.extra["z_scores"]) <= 3.0
        assert max(rep.extra["product_z_scores"]) <= 3.0


class TestTimeChangeT95:
    def test_t95_ratio_bounded_across_widths(self):
        # P(T <= c|x1-x2|) >= 1 - eps shape: the 95th percentile of T/width
        # stays within a constant band as the interval shrinks
        t95 = []
        widths = (0.4, 0.2, 0.1)
        for w in widths:
            p = make_params(0.5, 400, 0.3, snapshot_stride=10**9)
            fns = [psi0_power_functional(1.0, -w / 2, w / 2, 0.5)]
            vals = []
            for i in range(80):
                rec = simulate(dirac(0.0), p, fns, RngStream(31, i))
                vals.append(compute_T(rec, 1.0, -w / 2, w / 2) / w)
            t95.append(np.percentile(vals, 95))
        assert max(t95) / min(t95) < 4.0
