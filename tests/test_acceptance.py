"""Acceptance suite: one test per criterion, each printing a pass/fail line
(also appended to tests/acceptance_report.txt).

Statistical tests use fixed seeds, so every run reproduces the same numbers.
Monte Carlo means of heavy-tailed summaries use the total-mass control
variate (its mean is exactly 1 by criticality of the offspring law), which
keeps the 3-standard-error gates well calibrated at desk-scale replica
counts.  Criteria 4, 6, 7, 8, 9 and 12 run their experiments through the
harness (`run_experiment`, on up to 4 cores), the same code the CLI and the
merge run.

Criterion 8 checks martingale-increment scaling against the stable time
change that governs it: the increment clock must follow the linear law, and
the slope of E log|dM| must match the clock's (docs/decisions.md has the
analysis of why E|dM|^q itself is not gated on d^1).  Criterion 12's
derivative-field Holder coverage, read from the fit that `tanaka` records
carry, is the spec's declared soft item and is reported without failing the
suite (particle-level event jumps dominate the max-oscillation statistic in
most replicas).
"""
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.integrate import quad

from conftest import per_particle_functional, record_criterion
from sbmlab.config import parse_config_text
from sbmlab.continuity import (
    CriterionParams,
    check_exponent_conditions,
    gs_series,
    holder_exponent,
)
from sbmlab.errors import ConfigError
from sbmlab.harness import check_report, run_experiment
from sbmlab.kernels import g_lambda, green_closed, green_numeric, heat_kernel
from sbmlab.measures import dirac
from sbmlab.particles import make_params, simulate
from sbmlab.rng import RngStream, make_offspring_law, sample_offspring
from sbmlab.stable_path import calibrate_smalljump_bound, inf_tail_oracle, inf_tail_probability

BETA = 0.5


def run_kind(kind, settings, tmp_path):
    """One harness run of `kind` at beta = BETA, t = 0.5 and the settings, on
    up to 4 of the available cores (the artifacts do not depend on the
    worker count: criterion 13)."""
    cfg = parse_config_text(f"beta = {BETA}\nt_end = 0.5\n{settings}", kind=kind)
    cfg.out = str(tmp_path / kind)
    cfg.workers = min(len(os.sched_getaffinity(0)), 4)
    return run_experiment(cfg)


def _records(out) -> list[dict]:
    """The records.jsonl of a run_kind output directory, one dict per replica."""
    return [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]


def test_criterion_01_green_oracle():
    worst = 0.0
    for lam in (0.25, 1.0, 4.0):
        for x in np.linspace(-6.0, 6.0, 200):
            worst = max(worst, abs(green_numeric(lam, x) - green_closed(lam, x)))
    ok = worst < 1e-8
    record_criterion(1, ok, f"max |green_numeric - green_closed| = {worst:.2e} < 1e-8")
    assert ok


def test_criterion_02_lipschitz_properties():
    rng = np.random.default_rng(12)
    x = rng.uniform(-5, 5, 10**4)
    y = rng.uniform(-5, 5, 10**4)
    g_viol = 0
    for lam in (0.25, 1.0, 4.0):
        g_viol += int(
            np.sum(np.abs(green_closed(lam, x) - green_closed(lam, y)) > np.abs(x - y) + 1e-14)
        )
    lam = 1.0
    a = math.sqrt(2 * lam)
    x1 = rng.uniform(-3, 3, 10**4)
    x2 = x1 + rng.uniform(0, 2, 10**4)
    yy = np.where(rng.random(10**4) < 0.5, x1 - rng.uniform(1e-9, 4, 10**4),
                  x2 + rng.uniform(1e-9, 4, 10**4))
    lhs = np.abs(g_lambda(lam, yy - x1) - g_lambda(lam, yy - x2))
    d_viol = int(np.sum(lhs > a * (x2 - x1) + 1e-12))
    ok = g_viol == 0 and d_viol == 0
    record_criterion(
        2, ok, f"Lipschitz violations: G {g_viol}/30000, off-interval g {d_viol}/10000"
    )
    assert ok


def test_criterion_03_offspring_law():
    details = []
    ok = True
    for beta in (0.3, 0.5, 0.8):
        law = make_offspring_law(beta)
        mass_err = abs(law.total_mass() - 1.0)
        mean_err = abs(law.mean() - 1.0)
        ok &= mass_err < 1e-10 and mean_err < 1e-10
        # empirical survival slope over the range resolved by 2e7 draws
        stream = RngStream(31, 0)
        n = 2 * 10**7
        counts = np.zeros(0)
        k_hi = (law.tail_constant * n / 30.0) ** (1.0 / (1.0 + beta))
        k_lo = max(10.0, k_hi / 80.0)
        ks = np.unique(np.round(np.logspace(np.log10(k_lo), np.log10(k_hi), 8)))
        counts = np.zeros(ks.size)
        done = 0
        while done < n:
            chunk = min(5 * 10**6, n - done)
            draws = sample_offspring(stream, law, chunk)
            counts += np.array([(draws > k).sum() for k in ks])
            done += chunk
        surv = counts / n
        slope = float(np.polyfit(np.log(ks), np.log(surv), 1, w=np.sqrt(counts))[0])
        target = -(1.0 + beta)
        ok_beta = abs(slope - target) <= 0.1
        ok &= ok_beta
        details.append(f"beta={beta}: mass_err={mass_err:.1e} mean_err={mean_err:.1e} "
                       f"tail slope {slope:.3f} (target {target})")
    record_criterion(3, ok, "; ".join(details))
    assert ok


def test_criterion_04_duality(tmp_path):
    # phi is the default smoothed indicator of [-1, 1], height 0.5, ramp 0.25
    rep = run_kind(
        "duality",
        "n_scale = 4000\nreplicas = 400\nseed = 7\nsnapshot_stride = 1000000000\n"
        "solver_nx = 401\nsolver_nt = 100\n",
        tmp_path,
    )
    e = rep.extra
    fails = check_report(rep)  # z <= 3
    record_criterion(
        4,
        not fails,
        f"duality lhs={e['lhs']:.5f}+-{e['lhs_se']:.5f} rhs={e['rhs']:.5f} "
        f"z={e['z_score']:.2f} (N=4000, 400 replicas)",
    )
    assert not fails, fails


def _phi1(y):
    return green_closed(1.0, y - 0.5)


def _phi2(y):
    return np.exp(-2.0 * (y + 0.3) ** 2)


C05_LEVELS = (0.25, 1.0)


def _criterion_05_replica(i: int) -> dict:
    """Per t level, replica i's <X_t, phi1>, <X_t, phi2>, int_0^t <X_s, phi>
    ds for both, total mass and total occupation, from a run to t on stream
    (77, i) at dt = 1/476: the run to 0.25 is the first 119 steps of the run
    to 1."""
    fns = [per_particle_functional("phi1", _phi1), per_particle_functional("phi2", _phi2)]
    out = {}
    for t in C05_LEVELS:
        params = make_params(BETA, 1000, t, dt=1.0 / 476, snapshot_stride=10**9)
        rec = simulate(dirac(0.0), params, fns, RngStream(77, i), keep_path=False)
        pos, mass = rec.final_positions, params.mass_per_particle
        out[t] = (mass * float(np.sum(_phi1(pos))), mass * float(np.sum(_phi2(pos))),
                  rec.totals["phi1"].values[0], rec.totals["phi2"].values[0],
                  rec.masses[-1], rec.mass_occupation[-1])
    return out


def test_criterion_05_mean_formulas():
    R = 400
    workers = min(len(os.sched_getaffinity(0)), 4)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        replicas = list(pool.map(_criterion_05_replica, range(R)))
    # per t level, one row per quantity of _criterion_05_replica
    columns = {t: np.array([r[t] for r in replicas]).T.copy() for t in C05_LEVELS}

    def pt_phi(phi, t):
        return quad(lambda y: heat_kernel(t, y) * phi(y), -30, 30, epsabs=1e-12)[0]

    ok = True
    details = []
    for k, (name, phi) in enumerate((("phi1", _phi1), ("phi2", _phi2))):
        for t in C05_LEVELS:
            x_phi, y_phi, ctrl_mass, ctrl_occ = columns[t][[k, 2 + k, 4, 5]]
            for kind, vals in (("X", x_phi), ("Y", y_phi)):
                if kind == "X":
                    oracle = pt_phi(phi, t)
                    control, c_mean = ctrl_mass, 1.0
                else:
                    oracle = quad(lambda s: pt_phi(phi, s), 0, t, epsabs=1e-10, limit=100)[0]
                    control, c_mean = ctrl_occ, t
                slope = np.cov(vals, control)[0, 1] / np.var(control)
                adj = vals - slope * (control - c_mean)
                se = adj.std(ddof=1) / math.sqrt(R)
                z = (adj.mean() - oracle) / se
                ok &= abs(z) <= 3.0
                details.append(f"E<{kind}_{t},{name}> z={z:+.2f}")
    record_criterion(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_jump_compensator(tmp_path):
    # jump levels y = (m + 1/2)/N for 6 log-spaced lattice units m in [40, 400]
    rep = run_kind(
        "jumps",
        "n_scale = 4000\nreplicas = 200\nseed = 88\nsnapshot_stride = 1000000000\n"
        "jump_units = 40 400 6\n",
        tmp_path,
    )
    e = rep.extra
    fails = check_report(rep)  # every |z| <= 3, tail slope within 0.1 of -(1+beta)
    zs = [round(z, 2) for z in e["z_scores"]]
    record_criterion(6, not fails, f"compensator z per level {zs}; tail slope {e['slope']:.3f}")
    assert not fails, fails


def test_criterion_07_tanaka_consistency(tmp_path):
    # joint refinement of the estimator stack: particle count with panel
    # density and kernel bandwidth (fixed-resolution estimators floor at the
    # particle-level jump scale, which does not shrink with N).  One tanaka
    # run per level; CLI commands and evidence: docs/decisions.md
    w_means = {0.25: [], 0.5: []}
    dk_means = []
    for n_scale, npanel, bw in ((1000, 81, 0.16), (2000, 161, 0.127), (4000, 321, 0.1)):
        out = tmp_path / f"n{n_scale}"
        rep = run_kind(
            "tanaka",
            f"n_scale = {n_scale}\nreplicas = 150\nseed = 55\nsnapshot_stride = 1000000000\n"
            f"lam = 0.5\nlam_alt = 2\nx_eval = 0.25 0.5\nx_panel = -1 1 {npanel}\n"
            f"bandwidth = {bw}\n",
            out,
        )
        for x in (0.25, 0.5):
            w_means[x].append(rep.merged[f"ftc_abs:x={x:g}"]["mean"])
        # the merged means cannot give the mean of a per-replica |difference|
        dk = [abs(r["L_kernel:x=0.25"] - r["L_tanaka:lam=0.5:x=0.25"])
              for r in _records(out / "tanaka")]
        dk_means.append(float(np.mean(dk)))
    lam_z = [rep.extra[f"lambda_diff_z:x={x:g}"] for x in (0.25, 0.5)]

    ftc_monotone = all(
        w_means[x][0] > w_means[x][1] > w_means[x][2] for x in (0.25, 0.5)
    )
    cross_monotone = dk_means[0] > dk_means[1] > dk_means[2]
    lam_fails = check_report(rep)  # the N = 4000 run's lambda-robustness z <= 3
    ok = ftc_monotone and cross_monotone and not lam_fails
    record_criterion(
        7,
        ok,
        f"|W| means x=0.25 {[f'{v:.4f}' for v in w_means[0.25]]}, "
        f"x=0.5 {[f'{v:.4f}' for v in w_means[0.5]]}; "
        f"|L_kernel - L_tanaka| {[f'{v:.4f}' for v in dk_means]}; "
        f"lambda-robustness z at x = 0.25, 0.5 {[f'{z:.2f}' for z in lam_z]}",
    )
    assert ok, lam_fails


def test_criterion_08_martingale_moment_scaling(tmp_path):
    # M(g^{x1}) - M(g^{x2}) is a (1+beta)-stable process run by the clock
    # T_d = int_0^t <X_s, |g^{x1} - g^{x2}|^{1+beta}> ds, so E|dM|^q follows
    # E[T_d^{q/(1+beta)}] (d^{q/(1+beta)} = d^0.8 as d -> 0), not d^1.  The
    # linear law is gated on E T_d; the increments are gated on the log
    # scale, where the time change fixes the slope and the estimate has
    # finite variance (|dM|^q has tail index (1+beta)/q = 1.25).  Only slopes
    # are checked: the paper's abstract does not fix the moment constants.
    # The kind's default distances and pair centers are the pinned 20 pairs.
    # Analysis, seed table and negative controls: docs/decisions.md
    q = 1.2
    rep = run_kind(
        "moments",
        "n_scale = 2000\nreplicas = 600\nseed = 44\nsnapshot_stride = 1000000000\n"
        f"lam = 1.0\nq_moment = {q}\n",
        tmp_path,
    )
    e = rep.extra
    moments = [rep.merged[f"moment:d={d:g}"]["mean"] for d in (0.05, 0.1, 0.2, 0.4)]
    gap = e["log_slope"] - e["log_prediction"]
    fails = check_report(rep)  # clock slope >= 0.85, |gap| <= 0.15
    record_criterion(
        8,
        not fails,
        f"log-log slope {e['slope']:.3f} of E|dM|^q (moments "
        f"{[f'{m:.4f}' for m in moments]}; clock prediction "
        f"{e['moment_prediction']:.3f}, asymptotic q/(1+beta) = {q / (1 + BETA):.2f}); clock "
        f"slope {e['clock_slope']:.3f} >= 0.85; E log|dM| slope {e['log_slope']:.3f} vs clock "
        f"{e['log_prediction']:.3f} (gap {gap:+.3f}, bound 0.15)",
    )
    assert not fails, fails


def test_criterion_09_time_change(tmp_path):
    rep = run_kind(
        "timechange",
        "n_scale = 4000\nreplicas = 400\nseed = 11\nsnapshot_stride = 1000000000\n"
        "lam = 1.0\nx1 = -0.1\nx2 = 0.1\ntheta_grid = 0.5 1 2\n",
        tmp_path,
    )
    e = rep.extra
    fails = check_report(rep)  # every z <= 3, no T-bound violation
    record_criterion(
        9,
        not fails,
        f"Laplace-curve z {[f'{z:.2f}' for z in e['z_scores']]} (product-identity z "
        f"{[f'{z:.2f}' for z in e['product_z_scores']]}); T-bound violations "
        f"{e['t_bound_violations']}/{rep.replicas}",
    )
    assert not fails, fails


def test_criterion_10_stable_tails():
    # (a) simulated inf-tail vs the exact first-passage oracle on the
    #     MC-resolved range; (b) the (1+beta)/beta exponent read from the
    #     oracle curve at depth (the MC-resolved window is provably too
    #     shallow for the asymptotic slope; its fit is reported)
    # This loop is the lab's one implementation of the stable-tail experiment:
    # its tails on stream (5, 0) with 40000 paths at 512 steps, its small-jump
    # half on (6, 0) with 30000 at 256.  No harness kind runs it
    # (docs/decisions.md, "The stabletails kind is deleted").
    stream = RngStream(5, 0)
    xs = np.array([1.5, 2.0, 2.5, 3.0])
    R = 40000
    probs = np.array(
        [inf_tail_probability(BETA, 1.0, x, R, stream, steps=512) for x in xs]
    )
    oracle = np.asarray(inf_tail_oracle(BETA, 1.0, xs))
    agree = True
    for p_hat, p_ex in zip(probs, oracle):
        se = math.sqrt(p_ex * (1 - p_ex) / R)
        agree &= abs(p_hat - p_ex) <= 0.08 * p_ex + 3 * se
    mc_slope = float(np.polyfit(np.log(xs), np.log(-np.log(probs)), 1)[0])
    deep_x = np.array([4.5, 7.0, 10.0, 15.0])
    deep = np.asarray(inf_tail_oracle(BETA, 1.0, deep_x))
    slope = float(np.polyfit(np.log(deep_x), np.log(-np.log(deep)), 1)[0])
    target = (1 + BETA) / BETA
    slope_ok = abs(slope - target) <= 0.25

    sj = calibrate_smalljump_bound(
        BETA,
        calibration_grid=[(0.1, 0.5, 0.25), (0.1, 0.6, 0.3), (0.05, 0.3, 0.15), (0.1, 0.4, 0.2)],
        holdout_grid=[(0.1, 0.3, 0.15), (0.1, 0.3, 0.2), (0.2, 0.4, 0.2),
                      (0.2, 0.3, 0.15), (0.1, 0.45, 0.22)],
        replicas=30000,
        stream=RngStream(6, 0),
        steps=256,
    )
    ok = agree and slope_ok and sj.violations == 0
    record_criterion(
        10,
        ok,
        f"inf-tail MC matches first-passage oracle: {agree}; exponent fit "
        f"{slope:.3f} (target {target}, MC-window fit {mc_slope:.2f} reported); "
        f"smalljump holdout violations {sj.violations} (C={sj.c_fitted:.3f})",
    )
    assert ok


def test_criterion_11_criterion_series():
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(10**4):
        beta = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.01, 0.95)
        q = rng.uniform(1.01, 1.0 + beta - 0.01)
        rep = gs_series(
            CriterionParams(beta=beta, gamma=gamma, q=q, n_max=16),
            r_grid=(1.0,),
        )
        cond = check_exponent_conditions(beta, gamma, q)
        want_a = cond.gamma_lt_one_minus_inv_q  # 1 - q(1-gamma) < 0
        want_b = 1.0 / beta - gamma * (1 + 1 / beta) > 0
        want_c = 1.0 / (1 + beta) - gamma > 0
        if (
            rep.q_a.convergent != want_a
            or rep.q_b.convergent != want_b
            or rep.q_c.convergent != want_c
        ):
            mismatches += 1
    ref = gs_series(
        CriterionParams(beta=0.5, gamma=0.2, q=1.4, k_window=1.0, c_free=1.0),
        r_grid=(1.0, 10.0, 100.0, 1000.0),
    )
    g_err = abs(ref.g_closed - ref.g_partial)
    ok = (
        mismatches == 0
        and ref.q_trend_decreasing
        and ref.q_trend[-1] < 1e-3
        and g_err < 1e-10
    )
    record_criterion(
        11,
        ok,
        f"flag mismatches {mismatches}/10000; Q(0,r) decreasing={ref.q_trend_decreasing} "
        f"final={ref.q_trend[-1]:.2e}; |G closed - partial|={g_err:.1e}",
    )
    assert ok


def test_criterion_12_regularity_exponents(tmp_path):
    r"""Hard part: synthetic Holder oracles, and the bin-refinement probe of
    the occupation density, continuous in d = 1 and locally unbounded in
    d = 2.  Soft part: how often the 95% interval of the Holder fit of the
    derivative field H covers beta/(1+beta).  Both lines read `unbounded2d`
    and `tanaka` records; from the repository root, the same runs are

        printf 'beta = 0.5\nn_scale = 10000\nt_end = 0.3\nseed = 33\nreplica_start = 100\nreplicas = 3\ndim = 1\n' > c12-d1.cfg
        sed 's/dim = 1/dim = 2/' c12-d1.cfg > c12-d2.cfg
        printf 'beta = 0.5\nn_scale = 4000\nreplicas = 30\nseed = 66\nsnapshot_stride = 1000000000\nlam = 0.5\nlam_alt = 2\nx_panel = -2 2 513\n' > c12-soft.cfg
        PYTHONPATH=src python -m sbmlab.cli unbounded2d --config c12-d1.cfg --out c12-d1
        PYTHONPATH=src python -m sbmlab.cli unbounded2d --config c12-d2.cfg --out c12-d2
        PYTHONPATH=src python -m sbmlab.cli tanaka --config c12-soft.cfg --out c12-soft

    with the default resolutions 0.2 0.1 0.05, window -1.5 1.5 and
    holder_lags 4 64 (docs/decisions.md, "Criterion 12 through the harness").
    """
    x = np.linspace(0.0, 1.0, 1025)
    fit_lin = holder_exponent(x, (1, 128), dx=1 / 1024)
    fit_cusp = holder_exponent(np.abs(x - 0.5) ** 0.5, (1, 128), dx=1 / 1024)
    gen = RngStream(42, 0).gen
    bm = np.cumsum(gen.normal(0, math.sqrt(1 / 4096), 4096))
    fit_bm = holder_exponent(bm, (4, 256), dx=1 / 4096)
    synth_ok = (
        abs(fit_lin.exponent - 1.0) < 0.05
        and abs(fit_cusp.exponent - 0.5) < 0.07
        and abs(fit_bm.exponent - 0.5) < 0.1
    )

    probe = {}
    for dim in (1, 2):
        out = tmp_path / f"d{dim}"
        run_kind("unbounded2d", f"n_scale = 10000\nt_end = 0.3\nseed = 33\nreplica_start = 100\n"
                 f"replicas = 3\ndim = {dim}\n", out)
        vals = [[r[f"max_density:h={h:g}"] for h in (0.2, 0.1, 0.05)]
                for r in _records(out / "unbounded2d")]
        probe[dim] = (float(np.median([v[-1] / v[0] for v in vals])),
                      [v[0] < v[1] < v[2] for v in vals])
    d1_ratio, _ = probe[1]
    d2_ratio, d2_increasing = probe[2]
    probe_ok = all(d2_increasing) and d1_ratio < 3.0 and d2_ratio > d1_ratio

    ok = synth_ok and probe_ok
    record_criterion(
        12,
        ok,
        f"synthetic exponents lin={fit_lin.exponent:.3f} cusp={fit_cusp.exponent:.3f} "
        f"bm={fit_bm.exponent:.3f}; probe ratios d1={d1_ratio:.2f} d2={d2_ratio:.2f} "
        f"(d2 strictly increasing: {all(d2_increasing)})",
    )
    out = tmp_path / "soft"
    run_kind("tanaka", "n_scale = 4000\nreplicas = 30\nseed = 66\nsnapshot_stride = 1000000000\n"
             "lam = 0.5\nlam_alt = 2\nx_panel = -2 2 513\n", out)
    fits = _records(out / "tanaka")
    cover = int(sum(r["holder_covers:lam=0.5"] for r in fits))
    above = sum(r["holder_exponent:lam=0.5"] >= 0.15 for r in fits)
    R = len(fits)
    soft_ok = cover / R >= 0.8
    record_criterion(
        12,
        soft_ok,
        f"derivative-field band coverage of 1/3: {cover}/{R} (target >= 80%); "
        f"exponent >= 0.15 on {above}/{R} (event-jump dominance; soft criterion)",
        soft=True,
    )
    assert ok


def test_criterion_13_engineering(tmp_path):
    cfg_text = (
        "beta = 0.5\nn_scale = 400\nt_end = 0.2\nseed = 13\nreplicas = 6\n"
        "x_panel = -1 1 21\nbandwidth = 0.2\n"
    )
    cfg = parse_config_text(cfg_text, kind="tanaka")
    cfg.out = str(tmp_path / "t1")
    run_experiment(cfg)
    first = {p.name: p.read_bytes() for p in (tmp_path / "t1").iterdir()}
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in (tmp_path / "t1").iterdir()}
    bitwise = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )

    cfg_w = parse_config_text(cfg_text, kind="tanaka")
    cfg_w.workers = 3
    cfg_w.out = str(tmp_path / "t3")
    rep3 = run_experiment(cfg_w)
    cfg_1 = parse_config_text(cfg_text, kind="tanaka")
    cfg_1.out = str(tmp_path / "t1b")
    rep1 = run_experiment(cfg_1)
    worker_invariant = rep1.merged == rep3.merged

    try:
        parse_config_text("beta = 1.0", kind="simulate")
        beta_rejected = False
    except ConfigError:
        beta_rejected = True
    try:
        parse_config_text("beta = 0.5\nn_scale = 10000\ndt = 0.05", kind="simulate")
        cap_rejected = False
    except ConfigError as err:
        cap_rejected = any("branch_rate" in v for v in err.violations)

    ok = bitwise and worker_invariant and beta_rejected and cap_rejected
    record_criterion(
        13,
        ok,
        f"bitwise rerun: {bitwise}; worker-count invariance: {worker_invariant}; "
        f"beta/dt validation: {beta_rejected}/{cap_rejected}",
    )
    assert ok
