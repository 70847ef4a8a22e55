import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.derive_expected_values import quadratic_qp  # tests/oracles, the SLSQP route
from oracles.per_round_metrics import evaluate_trace as per_round_evaluate_trace

from banditpd import cli, problems
from banditpd.engine import RunTrace, run_horizon
from banditpd.geometry import Box
from banditpd.metrics import (
    COMPARATOR_TOL,
    ComparatorResult,
    _mean_round_loss,
    evaluate_trace,
    fit_loglog_slope,
    log_checkpoints,
    minimize_quadratic_over_polytope,
    network_regret,
    solve_offline_comparator,
)
from banditpd.network import GraphSchedule
from banditpd.oracle import StreamFactory
from banditpd.problems import (
    RegressionProblemSpec,
    eval_constraint,
    eval_loss,
    materialize,
)
from banditpd.schedule import ScheduleOverrides, ScheduleParams, rate_envelopes


def tiny_run(seed=11, n=3, p=2, T=25, b_offset=0.5, mu_reg=0.0):
    spec = RegressionProblemSpec(n=n, p=p, q_i=2, m_i=2, halfwidth=3.0,
                                 b_offset=b_offset, mu_reg=mu_reg, seed=seed)
    return run_horizon(
        T, spec,
        ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=3.0),
        GraphSchedule(n=n, edge_prob=0.6, backbone=True, seed=seed))


def quadratic_at(ev, k, x):
    """f_t(x) for t = k+1 from the round's coefficients, one point at a time."""
    return 0.5 * x @ ev.quad_P[k] @ x - ev.quad_r[k] @ x + ev.quad_c[k]


# The ridge term reaches the network loss only through P_t, so the loss checks
# run with and without it.
MU_REGS = (0.0, 0.7)


class TestEvaluateTrace:
    def test_matches_pointwise_oracles(self):
        for mu_reg in MU_REGS:
            trace = tiny_run(mu_reg=mu_reg)
            ev = evaluate_trace(trace)
            spec = trace.problem
            for k in (0, 7, trace.rounds - 1):
                t = k + 1
                losses, norms = [], []
                for i in range(1, spec.n + 1):
                    x = trace.x_hist[k, i - 1]
                    losses.append(np.mean([
                        eval_loss(materialize(spec, j, t), x)
                        for j in range(1, spec.n + 1)
                    ]))
                    stacked = np.concatenate([
                        np.clip(eval_constraint(materialize(spec, j, t), x), 0.0, None)
                        for j in range(1, spec.n + 1)
                    ])
                    norms.append(np.linalg.norm(stacked))
                assert ev.mean_loss_inc[k] == pytest.approx(np.mean(losses), rel=1e-12), mu_reg
                assert ev.ccv_inc[k] == pytest.approx(np.mean(norms), rel=1e-12), mu_reg

    def test_quadratic_coefficients_reproduce_the_loss(self):
        for mu_reg in MU_REGS:
            trace = tiny_run(seed=4, mu_reg=mu_reg)
            ev = evaluate_trace(trace)
            spec = trace.problem
            rng = np.random.default_rng(0)
            for k in (0, 3):
                t = k + 1
                for x in rng.uniform(-2, 2, size=(4, spec.p)):
                    direct = np.mean([eval_loss(materialize(spec, j, t), x)
                                      for j in range(1, spec.n + 1)])
                    assert quadratic_at(ev, k, x) == pytest.approx(direct, rel=1e-12), mu_reg

    def test_pool_covers_every_agent_round_row(self):
        trace = tiny_run(T=6)
        ev = evaluate_trace(trace)
        spec = trace.problem
        assert ev.pool_normals.shape == (5 * spec.n * spec.m_i, spec.p)
        inst = materialize(spec, 2, 3)
        row = 2 * spec.n * spec.m_i + 1 * spec.m_i  # round 3, agent 2, first row
        assert np.array_equal(ev.pool_normals[row], inst.B[0])
        assert ev.pool_offsets[row] == inst.b[0]
        # the pool is the trace's recorded data, viewed rather than copied
        assert np.shares_memory(ev.pool_normals, trace.B)
        assert np.shares_memory(ev.pool_offsets, trace.b)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 7), p=st.integers(1, 7), q=st.integers(1, 7), m=st.integers(1, 7),
           rounds=st.integers(0, 24), mu_reg=st.sampled_from(MU_REGS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_round_reference_bit_for_bit(self, n, p, q, m, rounds, mu_reg, seed):
        # Random round data and points of every shape, empty traces included;
        # b has both signs, so some slack is clipped and some is not.
        rng = np.random.default_rng(seed)
        spec = RegressionProblemSpec(n=n, p=p, q_i=q, m_i=m, halfwidth=2.0, b_offset=0.1,
                                     mu_reg=mu_reg, seed=1)
        per_agent = np.zeros((rounds, n))
        trace = RunTrace(problem=spec, x_hist=rng.uniform(-2.0, 2.0, size=(rounds, n, p)),
                         loss=per_agent, g_clipped=np.zeros((rounds, n, m)),
                         direction_norm=per_agent, step_norm=per_agent, dual_norm=per_agent,
                         A=rng.normal(size=(rounds, n, q, p)), theta=rng.normal(size=(rounds, n, q)),
                         B=rng.normal(size=(rounds, n, m, p)), b=rng.normal(size=(rounds, n, m)))
        ev, ref = evaluate_trace(trace), per_round_evaluate_trace(trace)
        assert ev.rounds == ref.rounds == rounds
        for name in ("quad_P", "quad_r", "quad_c", "mean_loss_inc", "ccv_inc"):
            assert np.array_equal(getattr(ev, name), getattr(ref, name)), name

    def test_reads_the_trace_without_drawing(self, monkeypatch):
        trace = tiny_run(T=6)
        expected = evaluate_trace(trace)

        def no_draws(*args):
            raise AssertionError("evaluate_trace drew problem data")

        monkeypatch.setattr(problems, "materialize", no_draws)
        monkeypatch.setattr(StreamFactory, "stream", no_draws)
        ev = evaluate_trace(trace)
        assert np.array_equal(ev.mean_loss_inc, expected.mean_loss_inc)
        assert np.array_equal(ev.quad_P, expected.quad_P)


def simulated(**run):
    """A short desk run through cli.simulate, and the evaluation of its trace."""
    cfg = cli.parse_config(preset="desk-convex-c05",
                           overrides={"run": {"horizon": 30, "seeds": [7], **run}})
    trace = run_horizon(cfg.horizon, cfg.problem_spec(7), cfg.schedule, cfg.graph_schedule(7))
    return cli.simulate(cfg, 7), evaluate_trace(trace)


class TestSeriesMetrics:
    """cli.simulate takes the running sums of the per-round increments."""

    def test_ccv_is_a_running_sum(self):
        res, ev = simulated(regret=False)
        assert np.array_equal(res["net_ccv"], np.cumsum(ev.ccv_inc))

    def test_loss_is_a_running_sum(self):
        res, ev = simulated(regret=False)
        assert np.array_equal(res["cum_loss"], np.cumsum(ev.mean_loss_inc))
        assert np.isnan(res["net_regret"]).all()

    def test_regret_telescopes_against_loss(self):
        ev = evaluate_trace(tiny_run())
        comp = solve_offline_comparator(ev)
        assert comp.converged
        # any fixed point scores the same way; the comparator's is the one reported
        for x in (comp.x_star, np.array([0.3, -1.2])):
            star = [quadratic_at(ev, k, x) for k in range(ev.rounds)]
            reg = network_regret(ev, x)
            assert reg.shape == (ev.rounds,)
            assert np.allclose(reg, np.cumsum(ev.mean_loss_inc) - np.cumsum(star), atol=1e-9)

    def test_regret_requires_convergence(self, monkeypatch):
        bad = ComparatorResult(x_star=np.zeros(5), objective=0.0, converged=False,
                               max_violation=1.0, refinements=1, working_rows=10)
        monkeypatch.setattr(cli, "solve_offline_comparator", lambda ev: bad)
        with pytest.raises(cli.ComparatorFailure, match="did not converge for seed 7"):
            simulated(regret=True)

    def test_comparator_loss_series_is_the_quadratic(self):
        ev = evaluate_trace(tiny_run(seed=9, T=8))
        x = np.array([0.3, -1.2])
        direct = [quadratic_at(ev, k, x) for k in range(ev.rounds)]
        X = np.broadcast_to(x, (ev.rounds, 1, x.size))
        assert np.allclose(_mean_round_loss(ev.quad_P, ev.quad_r, ev.quad_c, X), direct)


class TestQuadraticMinimizer:
    def test_unconstrained_interior_optimum(self):
        box = Box(dim=2, halfwidth=5.0)
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.array([1.0, -2.0]), 0.0, box,
            np.zeros((0, 2)), np.zeros(0))
        assert res.converged
        assert np.allclose(res.x_star, [1.0, -2.0], atol=1e-9)
        assert res.objective == pytest.approx(-2.5, abs=1e-9)

    def test_single_binding_halfspace(self):
        # min 0.5||x||^2 - 2 x_1 subject to x_1 <= 1: optimum (1, 0).
        box = Box(dim=2, halfwidth=5.0)
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.array([2.0, 0.0]), 0.0, box,
            np.array([[1.0, 0.0]]), np.array([1.0]))
        assert res.converged
        assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-8)
        assert res.objective == pytest.approx(-1.5, abs=1e-8)

    def test_box_face_binds(self):
        box = Box(dim=2, halfwidth=5.0)
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.array([7.0, 0.0]), 0.0, box,
            np.zeros((0, 2)), np.zeros(0))
        assert res.converged
        assert np.allclose(res.x_star, [5.0, 0.0], atol=1e-8)

    def test_redundant_rows_change_nothing(self):
        box = Box(dim=2, halfwidth=5.0)
        loose = np.array([[1.0, 1.0], [0.5, -0.3]])
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.array([1.0, -2.0]), 3.0, box, loose, np.array([50.0, 60.0]))
        assert res.converged
        assert np.allclose(res.x_star, [1.0, -2.0], atol=1e-9)
        assert res.objective == pytest.approx(0.5, abs=1e-9)

    def test_crowded_near_parallel_rows(self):
        # Fifty jittered copies of x_1 <= 1 crowd the same face; the solver
        # must still certify, which is what breaks naive active-set pivoting.
        rng = np.random.default_rng(5)
        jitter = rng.normal(scale=1e-7, size=(50, 2))
        normals = np.array([[1.0, 0.0]]) + jitter
        offsets = np.ones(50)
        box = Box(dim=2, halfwidth=5.0)
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.array([2.0, 0.0]), 0.0, box, normals, offsets)
        assert res.converged
        assert res.max_violation <= 1e-6
        assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-5)

    def test_infeasible_pool_reports_nonconvergence(self):
        # x_1 <= -6 conflicts with the box |x_1| <= 5.
        box = Box(dim=2, halfwidth=5.0)
        res = minimize_quadratic_over_polytope(
            np.eye(2), np.zeros(2), 0.0, box,
            np.array([[1.0, 0.0]]), np.array([-6.0]))
        assert not res.converged
        assert res.max_violation > 1e-6

    def test_random_instances_beat_feasible_samples(self):
        # Optimality spot-check: no sampled feasible point does better.
        rng = np.random.default_rng(12)
        box = Box(dim=3, halfwidth=2.0)
        for _ in range(10):
            M = rng.normal(size=(5, 3))
            P = M.T @ M + 0.5 * np.eye(3)
            r = rng.normal(size=3)
            normals = rng.normal(size=(4, 3))
            offsets = rng.uniform(0.1, 1.0, size=4)
            res = minimize_quadratic_over_polytope(P, r, 0.0, box, normals, offsets)
            assert res.converged
            assert res.max_violation <= 1e-6
            pts = rng.uniform(-2.0, 2.0, size=(400, 3))
            feas = pts[np.all(pts @ normals.T <= offsets, axis=1)]
            vals = 0.5 * np.einsum("ip,pq,iq->i", feas, P, feas) - feas @ r
            assert res.objective <= vals.min() + 1e-7

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 6), data=st.data())
    def test_rank_deficient_matches_slsqp(self, p, data):
        # P = M'M of rank k < p, as with no ridge term and fewer loss rows than
        # dimensions: no Cholesky factor, so the proximal path must certify.
        k = data.draw(st.integers(1, p - 1), label="k")
        m = data.draw(st.integers(1, 8), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        halfwidth = float(rng.uniform(0.5, 3.0))
        M = rng.normal(size=(k, p))
        P = M.T @ M
        r = M.T @ rng.normal(scale=3.0, size=k)
        normals = rng.normal(size=(m, p))
        offsets = rng.uniform(0.05, 1.0, size=m)  # the origin is strictly feasible
        tol = COMPARATOR_TOL
        res = minimize_quadratic_over_polytope(P, r, 0.0, Box(dim=p, halfwidth=halfwidth),
                                               normals, offsets)
        assert res.converged
        assert float((normals @ res.x_star - offsets).max()) <= tol
        assert float(np.abs(res.x_star).max()) <= halfwidth + tol
        x_ref = quadratic_qp(P, r, halfwidth, normals, offsets)
        f_ref = 0.5 * x_ref @ P @ x_ref - r @ x_ref
        assert res.objective == pytest.approx(f_ref, rel=1e-7, abs=1e-7)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            minimize_quadratic_over_polytope(
                np.eye(2), np.zeros(2), 0.0, Box(dim=2, halfwidth=1.0),
                np.zeros((2, 2)), np.zeros(3))


class TestOfflineComparator:
    def test_rounds_validation(self):
        ev = evaluate_trace(tiny_run(T=1))
        assert ev.rounds == 0
        with pytest.raises(ValueError):
            solve_offline_comparator(ev)

    def test_comparator_point_is_feasible_for_every_round(self):
        trace = tiny_run(seed=33, T=20)
        ev = evaluate_trace(trace)
        comp = solve_offline_comparator(ev)
        assert comp.converged
        slack = ev.pool_normals @ comp.x_star - ev.pool_offsets
        assert float(slack.max()) <= 1e-6
        assert np.all(np.abs(comp.x_star) <= trace.problem.halfwidth + 1e-6)


class TestSlopeFit:
    def test_exact_power_laws(self):
        h = np.unique(np.geomspace(1, 10_000, 200).astype(int))
        for expo in (0.5, 0.75, 1.0):
            assert fit_loglog_slope(h, 3.0 * h.astype(float) ** expo, 0.5) == pytest.approx(
                expo, abs=1e-9)

    def test_constant_series_has_zero_slope(self):
        h = np.array([10, 100, 1000])
        assert fit_loglog_slope(h, np.full(3, 7.0), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_tail_fraction_controls_the_window(self):
        # Values switch from slope 1 to slope 0 halfway; a short tail sees 0.
        h = np.array([1, 10, 100, 1000, 10_000])
        v = np.array([1.0, 10.0, 100.0, 100.0, 100.0])
        assert fit_loglog_slope(h, v, 0.4) == pytest.approx(0.0)
        assert fit_loglog_slope(h, v, 1.0) > 0.4

    def test_nonpositive_tail_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([1, 2, 3]), np.array([1.0, -1.0, 2.0]), 1.0)

    def test_fraction_and_window_validation(self):
        h, v = np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_loglog_slope(h, v, 0.0)
        with pytest.raises(ValueError):
            fit_loglog_slope(h, v, 1.5)
        with pytest.raises(ValueError):
            fit_loglog_slope(h, v, 0.2)  # window of one point
        with pytest.raises(ValueError):
            fit_loglog_slope(h, v[:2], 1.0)  # unequal lengths


class TestEnvelopes:
    """schedule.rate_envelopes: the rates report.json sets beside the fitted slopes."""

    def test_power_law_exponents(self):
        def theorem1(c):
            return rate_envelopes(ScheduleParams(mode="theorem1", gamma0=0.1, c=c))

        assert theorem1(0.3)["T1-reg"] == pytest.approx(0.7)
        assert theorem1(0.5) == {"T1-reg": 0.5, "T1-ccv": 0.75, "T2-ccv": 0.5}

    def test_logarithmic_ids_have_no_exponent(self):
        params = ScheduleParams(mode="theorem4", gamma0=0.1, mu=2.0)
        assert rate_envelopes(params) == {
            "T4-reg": "log(T)", "T4-ccv": "sqrt(T log T)", "T4-ccv-slater": "log(T)"}

    def test_mode_mapping(self):
        # custom mode is outside both theorems' hypotheses and promises no rate
        params = ScheduleParams(mode="custom", gamma0=0.15, overrides=ScheduleOverrides())
        assert rate_envelopes(params) == {}


class TestLogCheckpoints:
    def test_endpoints_and_monotonicity(self):
        cps = log_checkpoints(10_000)
        assert cps[0] == 1 and cps[-1] == 10_000
        assert np.all(np.diff(cps) > 0)
        # low decades collapse onto the integers; the top decade keeps its
        # full density of about 100 points
        assert np.count_nonzero(cps > 1000) >= 90
        assert len(cps) <= 401

    def test_small_counts(self):
        assert np.array_equal(log_checkpoints(1), [1])
        assert np.array_equal(log_checkpoints(2), [1, 2])
        assert log_checkpoints(0).size == 0

    def test_dense_low_end_is_deduplicated(self):
        cps = log_checkpoints(50)
        assert len(np.unique(cps)) == len(cps)
        assert cps[-1] == 50
