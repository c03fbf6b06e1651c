"""Branching particle engine: initialization, stepping, occupation
accumulators, event log statistics, and determinism."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import per_particle_functional
from sbmlab import harness, particles
from sbmlab.config import ExperimentConfig
from sbmlab.continuity import probe_functionals, unboundedness_probe
from sbmlab.errors import ResourceLimitError, UsageError
from sbmlab.kernels import g_lambda, green_closed, heat_kernel
from sbmlab.measures import FiniteMeasure, dirac, gridded_density
from sbmlab.particles import (
    EventFunctional,
    ModelParams,
    OccupationFunctional,
    PathRecorder,
    ParticleState,
    init_particles,
    make_params,
    save_events,
    save_snapshots,
    simulate,
    stable_order,
    step,
)
from sbmlab.rng import RngStream
from sbmlab.stable_path import compute_T, interval_martingale
from sbmlab.tanaka import (
    estimate_local_time,
    histogram_functional,
    interval_indicator_functional,
    martingale_increments,
    psi0,
    psi0_event_functional,
    psi0_power_functional,
    tanaka_event_functional,
    tanaka_panel_functional,
    tanaka_panel_terms,
)


def martingale_event_sum(recorder: PathRecorder, f) -> float:
    """The brute-force reference for an event total: the sum of
    f(location) * net_mass over every logged event."""
    return float(np.sum(np.asarray(f(recorder.event_locations)) * recorder.event_net_mass))


def interval_jump_max(recorder: PathRecorder, x1: float, x2: float) -> float:
    """The largest upward mass jump located in [x1, x2] (0 if none), read
    from the kept event log; deaths move mass downward and never count."""
    locs, net = recorder.event_locations, recorder.event_net_mass
    return float(net[(locs >= x1) & (locs <= x2) & (net > 0)].max(initial=0.0))


class TestModelParams:
    def test_dt_cap_violation_names_both_values(self):
        with pytest.raises(ValueError, match="branch_rate.*dt"):
            ModelParams(beta=0.5, n_scale=10000, dt=0.01, t_end=1.0)

    def test_derived_quantities(self):
        p = make_params(0.5, 400, 0.5)
        assert p.branch_rate == pytest.approx(1.5 * math.sqrt(400))
        assert p.mass_per_particle == pytest.approx(1 / 400)
        assert p.c_beta == pytest.approx(0.75 / math.gamma(0.5))
        assert p.branch_rate * p.dt <= 0.1 * (1 + 1e-9)
        assert p.n_steps * p.dt == pytest.approx(0.5, abs=1e-15)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            make_params(0.5, 10, 0.1, dim=3)


class TestInitParticles:
    def test_dirac_exact(self):
        p = make_params(0.5, 1000, 0.1)
        state = init_particles(dirac(0.0), p, RngStream(0, 0))
        assert state.count == 1000
        assert (state.positions == 0.0).all()

    def test_uniform_dkw(self):
        p = make_params(0.5, 10**4, 0.1)
        grid = np.linspace(0, 1, 101)
        mu = gridded_density(grid, np.ones(grid.size))
        state = init_particles(mu, p, RngStream(1, 0))
        xs = np.sort(state.positions)
        ecdf = np.arange(1, xs.size + 1) / xs.size
        assert np.max(np.abs(ecdf - xs)) < 0.02

    def test_mass_rounding(self):
        p = make_params(0.5, 1000, 0.1)
        grid = np.linspace(0, 1, 51)
        mu = gridded_density(grid, np.full(grid.size, 0.7116))
        state = init_particles(mu, p, RngStream(2, 0))
        assert abs(state.total_mass - mu.total_mass) <= 1.0 / 1000

    def test_zero_measure(self):
        p = make_params(0.5, 100, 0.1)
        mu = gridded_density(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            init_particles(mu, p, RngStream(0, 0))

    def test_dim2_product(self):
        p = make_params(0.5, 500, 0.1, dim=2)
        state = init_particles(dirac(0.0), p, RngStream(0, 0))
        assert state.positions.shape == (500, 2)
        assert (state.positions == 0.0).all()


class TestStep:
    def test_extinct_stays_extinct(self):
        p = make_params(0.5, 100, 0.1)
        state = ParticleState(0.0, np.empty(0), p.mass_per_particle)
        new, (locs, ks) = step(state, p, RngStream(0, 0))
        assert new.count == 0 and ks.size == 0
        assert new.time == pytest.approx(p.dt)

    def test_displacement_variance_branch_free(self):
        # tiny dt makes branching astronomically unlikely: pure motion check
        p = ModelParams(beta=0.5, n_scale=1, dt=1e-8, t_end=1e-8)
        mu = dirac(0.0, mass=10**5)
        state = init_particles(mu, p, RngStream(3, 0))
        new, (locs, ks) = step(state, p, RngStream(3, 1))
        assert ks.size == 0
        var = new.positions.var(ddof=1)
        se = p.dt * math.sqrt(2.0 / (new.count - 1))
        assert abs(var - p.dt) <= 3 * se

    def test_one_step_criticality(self):
        p = make_params(0.5, 2000, 0.5)
        mu = dirac(0.0)
        masses = []
        for i in range(200):
            state = init_particles(mu, p, RngStream(4, i))
            new, _ = step(state, p, RngStream(5, i))
            masses.append(new.total_mass)
        masses = np.asarray(masses)
        se = masses.std(ddof=1) / math.sqrt(masses.size)
        assert abs(masses.mean() - 1.0) <= 3 * se + 1e-12


class TestSimulate:
    def test_t_end_zero(self):
        p = make_params(0.5, 100, 0.0)
        f = per_particle_functional("one", lambda pos: np.ones(pos.shape[0]))
        rec = simulate(dirac(0.0), p, [f], RngStream(6, 0))
        assert rec.step_times.size == 1
        assert rec.snapshot_times.size == 1
        assert rec.totals["one"].values.tobytes() == np.zeros(1).tobytes()
        assert rec.event_times.size == 0

    def test_unit_accumulator_equals_mass_trapezoid(self, bare_recorders):
        p = make_params(0.5, 300, 0.2)
        f = per_particle_functional("one", lambda pos: np.ones(pos.shape[0]))
        rec = simulate(dirac(0.0), p, [f], RngStream(7, 0))
        direct = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rec.masses[1:] + rec.masses[:-1]) * p.dt)]
        )
        # the block point sums group the same positive terms differently
        assert rec.totals["one"].values.shape == (1,)
        assert abs(rec.totals["one"].values[0] - direct[-1]) <= 1e-12 * direct[-1]
        assert np.array_equal(rec.mass_occupation, direct)

    def test_mean_semigroup_formula(self):
        # replica mean of <X_t, f> vs <X_0, P_t f> for f = G_1(. - 0.5);
        # total mass (exact mean 1 by criticality) serves as control variate
        # to tame the infinite-variance mass fluctuations
        t = 0.25
        p = make_params(0.5, 500, t, snapshot_stride=10**9)
        mu = dirac(0.0)
        f = lambda y: green_closed(1.0, y - 0.5)
        vals, masses = [], []
        for i in range(300):
            rec = simulate(mu, p, [], RngStream(8, i))
            pos = rec.final_positions
            vals.append(p.mass_per_particle * float(np.sum(f(pos))))
            masses.append(rec.masses[-1])
        vals = np.asarray(vals)
        masses = np.asarray(masses)
        slope = np.cov(vals, masses)[0, 1] / np.var(masses)
        adjusted = vals - slope * (masses - 1.0)
        oracle, _ = quad(lambda y: heat_kernel(t, y) * f(y), -30, 30, epsabs=1e-12)
        se = adjusted.std(ddof=1) / math.sqrt(adjusted.size)
        assert abs(adjusted.mean() - oracle) <= 3 * se

    def test_criticality_at_snapshots(self, bare_recorders):
        _, params, recs = bare_recorders
        masses = np.array([r.masses[-1] for r in recs])
        se = masses.std(ddof=1) / math.sqrt(masses.size)
        assert abs(masses.mean() - 1.0) <= 3 * se

    def test_mean_occupation_formula(self, bare_recorders):
        # replica mean of the f-accumulator vs int_0^t <X_0, P_s f> ds
        _, params, _ = bare_recorders
        t = 0.3
        p = make_params(0.5, 400, t, snapshot_stride=10**9)
        f_call = lambda y: green_closed(1.0, y - 0.5)
        f = per_particle_functional("g", f_call)
        vals = []
        for i in range(200):
            rec = simulate(dirac(0.0), p, [f], RngStream(9, i))
            vals.append(rec.totals["g"].values[0])
        vals = np.asarray(vals)

        def p_s_f(s):
            return quad(lambda y: heat_kernel(s, y) * f_call(y), -30, 30, epsabs=1e-12)[0]

        oracle = quad(p_s_f, 0, t, epsabs=1e-10, limit=100)[0]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - oracle) <= 3 * se

    def test_determinism_bitwise(self):
        p = make_params(0.5, 300, 0.2)
        xs = np.linspace(-1, 1, 11)
        from sbmlab.tanaka import tanaka_panel_functional

        rec1 = simulate(dirac(0.0), p, [tanaka_panel_functional(1.0, xs)], RngStream(10, 0))
        rec2 = simulate(dirac(0.0), p, [tanaka_panel_functional(1.0, xs)], RngStream(10, 0))
        assert np.array_equal(rec1.final_positions, rec2.final_positions)
        assert np.array_equal(rec1.event_net_mass, rec2.event_net_mass)
        assert np.array_equal(
            rec1.totals["tanaka_panel:1"].values, rec2.totals["tanaka_panel:1"].values
        )

    def test_particle_cap(self):
        p = make_params(0.5, 1000, 0.5, particle_cap=900)
        with pytest.raises(ResourceLimitError):
            simulate(dirac(0.0), p, [], RngStream(11, 0))

    def test_event_sizes_on_lattice(self, bare_recorders):
        _, params, recs = bare_recorders
        for rec in recs[:20]:
            ks = rec.event_offspring
            assert (ks != 1).all()
            assert np.array_equal(
                rec.event_net_mass, (ks - 1) * params.mass_per_particle
            )

    def test_extinction_time(self):
        p = make_params(0.9, 4, 40.0)  # tiny population dies fast
        rec = simulate(dirac(0.0), p, [], RngStream(12, 0))
        if math.isfinite(rec.extinction_time):
            idx = np.searchsorted(rec.step_times, rec.extinction_time)
            assert rec.masses[idx] == 0.0
            assert (rec.masses[idx:] == 0.0).all()
            assert (rec.masses[: idx] > 0.0).all()


def _stepwise_integrals(mu, params, functionals, stream):
    """The reference for simulate's occupation integrals: every functional's
    value <X_s, f> at each step (its sum over the step's sorted positions at
    weight 1/N), integrated by one trapezoid update per step,
    cum + 0.5 * (v + v_prev) * dt, up to t_end, and the cumulative
    total-mass trapezoid likewise."""
    def values(state):
        points = np.sort(state.positions) if params.dim == 1 else state.positions
        return {f.name: f.state_value(points, params.mass_per_particle) for f in functionals}

    state = init_particles(mu, params, stream)
    prev = values(state)
    cum = {f.name: np.zeros(f.width) for f in functionals}
    masses, mass_occ = [state.total_mass], [0.0]
    for i in range(1, params.n_steps + 1):
        state, _ = step(state, params, stream)
        state.time = i * params.dt
        masses.append(state.total_mass)
        mass_occ.append(mass_occ[-1] + 0.5 * (masses[-1] + masses[-2]) * params.dt)
        now = values(state)
        for f in functionals:
            cum[f.name] = cum[f.name] + 0.5 * (now[f.name] + prev[f.name]) * params.dt
        prev = now
    return cum, np.asarray(mass_occ)


def _absolute_total(f: OccupationFunctional, total: np.ndarray) -> np.ndarray:
    """The integral of the point terms' absolute values: the total itself for
    a histogram, psi0^(1+beta) and an indicator, whose terms are >= 0; a
    Tanaka panel's derivative column is odd, and its terms' absolute values
    are a times those of the G column."""
    if f.meta.get("kind") != "tanaka_panel":
        return total
    blocks = total.reshape(len(f.meta["lams"]), 2, -1).copy()
    blocks[:, 1] = np.sqrt(2.0 * np.array(f.meta["lams"]))[:, None] * blocks[:, 0]
    return blocks.ravel()


def _functional_set(kind: str) -> list[OccupationFunctional]:
    """The occupation functionals of a harness kind."""
    return {
        "tanaka": [tanaka_panel_functional((1.0, 2.0), np.linspace(-1.0, 1.0, 21)),
                   histogram_functional(-8.0, 8.0, 0.025)],
        "timechange": [psi0_power_functional(1.0, -0.1, 0.1, 0.5),
                       interval_indicator_functional(-0.1, 0.1)],
        "moments": [histogram_functional(-8.0, 8.0, 0.0125)],
        "unbounded2d": probe_functionals(2, (0.1, 0.05), ((-1.0, 1.0), (-1.0, 1.0))),
    }[kind]


class TestBlockTrapezoid:
    """simulate forms each occupation integral as weighted point sums over
    blocks of buffered steps; every total is the step-by-step trapezoid up
    to rounding, whatever the block size."""

    @pytest.mark.parametrize("block", [1, 7, 100, 1000, 10**9])
    @pytest.mark.parametrize("kind", ["tanaka", "timechange", "moments", "unbounded2d"])
    def test_matches_stepwise_trapezoid(self, kind, block, monkeypatch):
        # caps in particle-steps: 1 ends a block at every step, 7 and 100 take
        # a few and a few dozen steps of three particles, 1000 about three
        # steps of 300, and 10**9 each run in one block
        monkeypatch.setattr(particles, "_BLOCK_POINTS", block)
        functionals = _functional_set(kind)
        dim = 2 if kind == "unbounded2d" else 1
        runs = [
            (dirac(0.0), make_params(0.5, 300, 0.5, dim=dim), RngStream(16, 0)),
            # three particles, extinct at t = 0.25 of 1 (in d = 1), after 17 of 68 steps
            (dirac(0.0, 0.15), make_params(0.5, 20, 1.0, dim=dim), RngStream(31, 1)),
            (dirac(0.0), make_params(0.5, 300, 0.0, dim=dim), RngStream(16, 0)),
        ]
        for mu, params, stream in runs:
            rec = simulate(mu, params, functionals, RngStream(stream.seed, stream.stream_index))
            want, mass_occ = _stepwise_integrals(mu, params, functionals, stream)
            for f in functionals:
                got = rec.totals[f.name].values
                assert got.shape == (f.width,)
                bound = 1e-12 * _absolute_total(f, want[f.name])
                assert (np.abs(got - want[f.name]) <= bound).all(), f.name
                if params.n_steps == 0:
                    assert got.tobytes() == np.zeros(f.width).tobytes()
                else:
                    assert want[f.name].any()
            assert np.array_equal(rec.mass_occupation, mass_occ)
            if params.n_scale == 20 and dim == 1:
                assert rec.extinction_time == 0.25


class TestKeep:
    """simulate keeps the event log and the snapshots between the ends only
    for keep_path; neither changes a draw or any other output."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_other_output_is_the_same(self, dim):
        # 0.5 at N = 300: a few hundred events over 63 steps
        params = make_params(0.5, 300, 0.5, dim=dim, snapshot_stride=4)
        functionals = _functional_set("timechange") if dim == 1 else []
        full, rec = (simulate(dirac(0.0), params, functionals, RngStream(40, 2), keep_path=keep)
                     for keep in (True, False))
        assert full.event_times.size > 100
        assert np.array_equal(full.snapshot_times, [*full.step_times[::4], 0.5])
        for r in (full, rec):
            assert np.array_equal(r.masses, full.masses)
            assert np.array_equal(r.mass_occupation, full.mass_occupation)
            for f in functionals:
                assert np.array_equal(r.totals[f.name].values, full.totals[f.name].values)
            assert np.array_equal(r.final_positions, full.final_positions)
            assert r.extinction_time == full.extinction_time
            assert np.array_equal(r.event_times, full.event_times)
        # without the path, the positions at t = 0 and t_end
        assert np.array_equal(rec.snapshot_times, [0.0, 0.5])
        assert all(np.array_equal(a, full.snapshots[k]) for a, k in zip(rec.snapshots, (0, -1)))

    def test_event_arrays_not_kept_are_unreadable(self):
        params = make_params(0.5, 300, 0.5)
        full = simulate(dirac(0.0), params, [], RngStream(41, 0))
        rec = simulate(dirac(0.0), params, [], RngStream(41, 0), keep_path=False)
        assert rec.event_times.size == full.event_offspring.size > 0
        for name in ("event_locations", "event_offspring", "event_net_mass"):
            with pytest.raises(UsageError, match=name):
                getattr(rec, name)
        with pytest.raises(UsageError):
            martingale_event_sum(rec, lambda y: np.ones(y.shape[0]))


def _net_mass(y: np.ndarray, net: np.ndarray) -> np.ndarray:
    return np.array([net.sum()])


class TestEventFunctional:
    """simulate sums an event functional over each block of steps' events
    into a total that the log's sum gives up to rounding, with or without
    the log."""

    RUNS = [
        # 260 steps (eight blocks and four steps), about 13 000 events
        (dirac(0.0), make_params(0.5, 300, 1.0), RngStream(16, 0)),
        # three particles, extinct at t = 0.25 of 1, after 17 of 68 steps
        (dirac(0.0, 0.15), make_params(0.5, 20, 1.0), RngStream(31, 1)),
    ]
    XS = np.linspace(-1.0, 1.0, 21)
    # the endpoints of the pairs (-0.3, 0.1), (0.0, 0.4), (-0.1, 0.1)
    ENDPOINTS = np.array([-0.3, -0.1, 0.0, 0.1, 0.4])

    @pytest.mark.parametrize("run", range(len(RUNS)))
    def test_totals_match_the_log(self, run):
        mu, params, stream = self.RUNS[run]
        functionals = [psi0_event_functional(0.5, -0.3, 0.1),
                       EventFunctional("net", _net_mass, 1, {"kind": "net_mass"}),
                       tanaka_event_functional((0.5, 2.0), self.XS),
                       tanaka_event_functional(1.0, self.ENDPOINTS)]
        psi, net_f, panel, endpoints = functionals
        full, rec = (simulate(mu, params, functionals,
                              RngStream(stream.seed, stream.stream_index), keep_path=keep)
                     for keep in (True, False))
        assert full.event_net_mass.size > 2
        # the log changes no total
        for name, total in full.totals.items():
            assert total.values.tobytes() == rec.totals[name].values.tobytes()
        y, net = full.event_locations, full.event_net_mass
        want = {psi.name: psi0(0.5, -0.3, 0.1, y)[:, None] * net[:, None],
                net_f.name: net[:, None]}
        blocks = []
        for lam, xs in ((0.5, self.XS), (2.0, self.XS), (1.0, self.ENDPOINTS)):
            d = xs[None, :] - y[:, None]  # the even and odd kernels of exp_kernel_sums
            even = np.exp(-math.sqrt(2.0 * lam) * np.abs(d)) * net[:, None]
            blocks += [even, -np.sign(d) * even]
        want[panel.name] = np.hstack(blocks[:4])
        # the odd half at the endpoints is -M_t(g^x), with g^x(y) = g_lambda(y - x)
        want[endpoints.name] = np.hstack(
            [blocks[4], -g_lambda(1.0, y[:, None] - self.ENDPOINTS) * net[:, None]])
        for name, terms in want.items():
            got = rec.totals[name].values
            assert got.shape == (terms.shape[1],)
            assert (np.abs(got - terms.sum(axis=0)) <= 1e-12 * np.abs(terms).sum(axis=0)).all()

    def test_terms_in_two_dimensions(self):
        params = make_params(0.5, 300, 0.5, dim=2)
        f = EventFunctional("net", _net_mass, 1, {"kind": "net_mass"})
        full = simulate(dirac(0.0), params, [f], RngStream(40, 2))
        rec = simulate(dirac(0.0), params, [f], RngStream(40, 2), keep_path=False)
        net = full.event_net_mass
        assert net.size > 100
        for r in (full, rec):
            total = r.find_total("net_mass").values[0]
            assert abs(total - net.sum()) <= 1e-12 * np.abs(net).sum()

    def test_no_event_no_term(self):
        rec = simulate(dirac(0.0), make_params(0.5, 100, 0.0),
                       [EventFunctional("net", _net_mass, 1, {"kind": "net_mass"})],
                       RngStream(13, 0))
        assert rec.find_total("net_mass").values.tobytes() == np.zeros(1).tobytes()
        with pytest.raises(UsageError, match="no psi0_event functional"):
            rec.find_total("psi0_event")

    def test_names_are_shared_with_occupations(self):
        params = make_params(0.5, 100, 0.1)
        fns = [interval_indicator_functional(-0.1, 0.1),
               EventFunctional("interval:-0.1:0.1", _net_mass)]
        with pytest.raises(ValueError, match="duplicate"):
            simulate(dirac(0.0), params, fns, RngStream(42, 0))


class TestStableOrder:
    def test_ties_take_the_stable_order(self):
        rng = np.random.default_rng(17)
        keys = rng.choice(np.array([-0.5, -0.0, 0.0, 0.25, 1.0]), 500)
        order, ordered = stable_order(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(ordered, keys[order])

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_distinct_keys(self, n):
        keys = np.random.default_rng(n).normal(size=n)
        order, ordered = stable_order(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(ordered, np.sort(keys))

class TestEventStatistics:
    def test_martingale_sum_no_events(self):
        p = make_params(0.5, 100, 0.0)
        rec = simulate(dirac(0.0), p, [], RngStream(13, 0))
        assert martingale_event_sum(rec, lambda y: np.ones(y.shape[0])) == 0.0

    def test_martingale_sum_telescopes_mass(self, bare_recorders):
        _, _, recs = bare_recorders
        for rec in recs[:20]:
            total = martingale_event_sum(rec, lambda y: np.ones(y.shape[0]))
            assert total == pytest.approx(rec.masses[-1] - rec.masses[0], abs=1e-12)

    def test_martingale_mean_zero(self, bare_recorders):
        _, _, recs = bare_recorders
        vals = np.array(
            [martingale_event_sum(r, lambda y: g_lambda(1.0, y)) for r in recs]
        )
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 3 * se

    def test_interval_jump_max_reads_the_last_step(self):
        # 22 steps of 0.1/22 end 1.4e-17 past t_end = 0.1; the 12 events of
        # the last step count like every other, births among them
        p = make_params(0.5, 200, 0.1)
        rec = simulate(dirac(0.0), p, [], RngStream(3, 0))
        assert p.n_steps * p.dt > 0.1 and rec.step_event_counts[-1] == 12
        locs, net = rec.event_locations, rec.event_net_mass
        last_births = locs[(rec.event_times == rec.horizon) & (net > 0)]
        assert last_births.size > 0
        for y in (*last_births, 0.0):
            for x1, x2 in ((y - 1e-9, y + 1e-9), (y - 0.5, y + 0.5)):
                inside = (locs >= x1) & (locs <= x2) & (net > 0)
                assert interval_jump_max(rec, x1, x2) == net[inside].max(initial=0.0)

    def test_interval_jump_shape(self, bare_recorders):
        # P(max jump >= b |dx|^{1/(1+beta)}) decreasing in b; the fitted
        # C t^{1/2} X0(1) b^{-(1+beta)} shape calibrated on one width holds
        # on another
        _, params, recs = bare_recorders
        t = 0.5
        power = 1.0 / 1.5

        def exceed_prob(width, b):
            y = b * width**power
            hits = [interval_jump_max(r, -width / 2, width / 2) >= y for r in recs]
            return float(np.mean(hits))

        bs = [0.2, 0.4, 0.8, 1.6]
        probs_cal = [exceed_prob(0.4, b) for b in bs]
        assert all(a >= b for a, b in zip(probs_cal, probs_cal[1:]))
        c_fit = max(p * b**1.5 / (t**0.5 * 1.0) for p, b in zip(probs_cal, bs))
        probs_hold = [exceed_prob(0.2, b) for b in bs]
        bound = [min(1.0, 1.5 * c_fit * t**0.5 * b**-1.5) for b in bs]
        assert all(p <= bb for p, bb in zip(probs_hold, bound))


def _load_events(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A d=1 event file read back as (times, locations, offspring)."""
    rows = [line.split() for line in path.read_text().splitlines()]
    times, locs, ks = zip(*rows) if rows else ((), (), ())
    return np.array(times, dtype=float), np.array(locs, dtype=float), np.array(ks, dtype=np.int64)


class TestPersistence:
    def test_events_roundtrip(self, tmp_path, bare_recorders):
        _, _, recs = bare_recorders
        rec = recs[0]
        path = tmp_path / "events.txt"
        save_events(rec, path)
        times, locs, ks = _load_events(path)
        assert np.array_equal(times, rec.event_times)
        assert np.array_equal(locs, rec.event_locations)
        assert np.array_equal(ks, rec.event_offspring)

    def test_snapshot_csv(self, tmp_path):
        p = make_params(0.5, 50, 0.05)
        rec = simulate(dirac(0.0), p, [], RngStream(14, 0))
        path = tmp_path / "snaps.csv"
        save_snapshots(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,particle,x"
        assert len(lines) == 1 + sum(s.shape[0] for s in rec.snapshots)


_XS = np.linspace(-1.0, 1.0, 5)
_TC = ExperimentConfig(kind="timechange")
# each reader, the functionals registered for it (its own lacking), and the
# meta kind it looks for
_READERS = {
    "compute_T": ([], lambda rec: compute_T(rec, 0.5, -0.1, 0.1), "psi0_power"),
    "interval_martingale": ([], lambda rec: interval_martingale(rec, 0.5, -0.1, 0.1),
                            "psi0_event"),
    "martingale_increments": ([tanaka_event_functional(2.0, [-0.1, 0.1])],
                              lambda rec: martingale_increments(rec, 0.5, [(-0.1, 0.1)]),
                              "tanaka_event"),
    # bins of 0.2 are too coarse for bandwidth 0.2
    "estimate_local_time": ([histogram_functional(-4.0, 4.0, 0.2)],
                            lambda rec: estimate_local_time(rec, _XS, 0.2), "histogram"),
    "tanaka_panel_terms-occupation": ([tanaka_panel_functional(2.0, _XS)],
                                      lambda rec: tanaka_panel_terms(rec, dirac(0.0), 0.5),
                                      "tanaka_panel"),
    "tanaka_panel_terms-event": ([tanaka_panel_functional(0.5, _XS)],
                                 lambda rec: tanaka_panel_terms(rec, dirac(0.0), 0.5),
                                 "tanaka_event"),
    "unboundedness_probe": (probe_functionals(1, [0.2], (-1.0, 1.0)),
                            lambda rec: unboundedness_probe(rec, [0.1], (-1.0, 1.0)),
                            "histogram"),
    "moments-record": ([], lambda rec: harness._record_moments(
        ExperimentConfig(kind="moments"), rec, dirac(0.0)), "histogram"),
    "jumps-record": ([], lambda rec: harness._record_jumps(
        ExperimentConfig(kind="jumps"), rec, dirac(0.0)), "jump_counts"),
    "timechange-record": ([psi0_power_functional(_TC.lam, _TC.x1, _TC.x2, _TC.beta),
                           psi0_event_functional(_TC.lam, _TC.x1, _TC.x2)],
                          lambda rec: harness._record_timechange(_TC, rec, dirac(0.0)),
                          "interval"),
}


class TestRecorderAccess:
    @pytest.mark.parametrize("reader", _READERS)
    def test_reader_without_its_functional_names_it(self, reader):
        # every reader finds its total through PathRecorder.find_total, which
        # names what to register; the harness records used to fail with
        # AttributeError on None
        functionals, read, kind = _READERS[reader]
        rec = simulate(dirac(0.0), make_params(0.5, 100, 0.05), functionals, RngStream(7, 0),
                       keep_path=False)
        with pytest.raises(UsageError, match=f"no {kind} functional.*register one before"):
            read(rec)

    def test_occupation_unknown_name(self, bare_recorders):
        # a reader of an occupation that was not registered says so
        _, _, recs = bare_recorders
        assert recs[0].totals == {}
        with pytest.raises(UsageError, match="no histogram functional"):
            recs[0].find_total("histogram")
        with pytest.raises(UsageError, match="no histogram functional that fits"):
            estimate_local_time(recs[0], np.linspace(-1.0, 1.0, 5), 0.2)
        with pytest.raises(UsageError, match=r"histogram functional bin_width=0.1 window=\[-1"):
            unboundedness_probe(recs[0], [0.1], (-1.0, 1.0))

    def test_event_net_mass_of_a_built_log(self):
        # one event (t=0.1, x=0, offspring=51) at N=100 adds (51 - 1)/100
        rec = PathRecorder(
            params=make_params(0.5, 100, 0.2),
            step_times=np.array([0.0, 0.1, 0.2]),
            masses=np.array([1.0, 1.5, 1.5]),
            mass_occupation=np.array([0.0, 0.125, 0.275]),
            totals={},
            snapshot_times=np.array([0.0, 0.2]),
            snapshots=[np.zeros(100), np.zeros(150)],
            extinction_time=math.inf,
            final_positions=np.zeros(150),
            step_event_counts=np.array([0, 1, 0]),
            event_log=(np.array([0.0]), np.array([51])),
        )
        assert rec.event_net_mass.tolist() == [0.5]
        assert rec.event_times.tolist() == [0.1]
        assert interval_jump_max(rec, -0.5, 0.5) == 0.5
        assert interval_jump_max(rec, 0.5, 1.0) == 0.0

    def test_dim2_simulate(self):
        p = make_params(0.5, 200, 0.1, dim=2, snapshot_stride=5)
        rec = simulate(dirac(0.0), p, [], RngStream(15, 0))
        assert rec.final_positions.shape[1] == 2
        assert rec.event_locations.shape[1] == 2 or rec.event_locations.size == 0
        spread = rec.final_positions.std(axis=0)
        assert (spread > 0).all()
