import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditpd.engine import (
    VARIANTS,
    InvariantViolation,
    init_agents,
    run_horizon,
    run_round,
)
from banditpd.geometry import Box
from banditpd.network import GraphSchedule, build_mixing, generate_round_graph
from banditpd.oracle import ProblemBounds, StreamFactory
from banditpd import engine
from banditpd.problems import (
    RegressionProblemSpec,
    compute_bounds,
    eval_constraint,
    materialize,
)
from banditpd.schedule import ScheduleOverrides, ScheduleParams, round_params
from oracles import per_agent_round as oracle  # tests/oracles, the earlier per-agent round

TINY_BOUNDS = ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12)


def small_setup(seed=7, n=4, p=3):
    """(spec, schedule, graph): run_horizon's arguments after the horizon."""
    spec = RegressionProblemSpec(n=n, p=p, q_i=2, m_i=2, halfwidth=5.0,
                                 b_offset=0.01, seed=seed)
    sched = ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=5.0)
    graph = GraphSchedule(n=n, edge_prob=0.5, backbone=True, seed=seed)
    return spec, sched, graph


def small_run(T, seed=7, n=4, p=3, variant="paper"):
    return run_horizon(T, *small_setup(seed, n, p), variant=variant)


def round_inputs(seed=7, n=4, p=3):
    """(spec, schedule, graph, box, bounds, Z_1): what run_round needs for round 1."""
    spec, sched, graph = small_setup(seed, n, p)
    box = Box(dim=spec.p, halfwidth=spec.halfwidth)
    Z = init_agents(spec.n, box, round_params(sched, 1).xi)
    return spec, sched, graph, box, compute_bounds(spec), Z


class TestPieces:
    def test_consensus_is_weighted_average(self):
        # x_{i,t} = sum_j W_ij z_j with the round's mixing matrix; the input
        # state is not touched.
        spec, sched, graph, box, bounds, Z = round_inputs()
        Z = np.random.default_rng(0).uniform(-1.0, 1.0, size=Z.shape)
        before = Z.copy()
        _Z_next, rows = run_round(4, Z, sched, graph, spec, StreamFactory(spec.seed),
                                  box=box, bounds=bounds)
        W = build_mixing(generate_round_graph(graph, 4), spec.n)
        assert np.allclose(rows["x_hist"], W @ before, rtol=0.0, atol=1e-15)
        assert np.array_equal(Z, before)

    def test_consensus_rejects_wrong_matrix_shape(self):
        # the state must have one row per agent of the spec
        spec, sched, graph, box, bounds, Z = round_inputs()
        with pytest.raises(ValueError):
            run_round(1, Z[:-1], sched, graph, spec, StreamFactory(spec.seed),
                      box=box, bounds=bounds)

    def test_dual_update_clips_then_scales(self):
        # q_{i,t} = gamma_t * max(g_{i,t}(x_{i,t}), 0): the recorded clipped values
        # match direct evaluation and the dual norm is gamma_t times their norm.
        spec, sched, _graph = small_setup()
        trace = small_run(60)
        assert np.any(trace.g_clipped > 0.0) and np.any(trace.dual_norm == 0.0)
        for k in range(trace.rounds):
            t = k + 1
            gamma = round_params(sched, t).gamma
            expected = gamma * np.linalg.norm(trace.g_clipped[k], axis=1)
            assert np.allclose(trace.dual_norm[k], expected, rtol=1e-12, atol=0.0)
            for i in range(spec.n):
                g = eval_constraint(materialize(spec, i + 1, t), trace.x_hist[k, i])
                assert np.allclose(trace.g_clipped[k, i], np.maximum(g, 0.0), rtol=1e-12, atol=1e-12)

    def test_primal_step_projects_onto_shrunk_box(self):
        # x_{t+1} = W_{t+1} z_{t+1}, so wherever W_{t+1} is invertible the primal
        # variable z_{t+1} is recoverable from the trace. It must lie in the
        # (1 - xi_{t+1})-shrunk box, and step_norm is its distance from x_t.
        spec, sched, graph = small_setup()
        trace = small_run(40)
        checked = on_boundary = 0
        for t in range(1, trace.rounds):
            W = build_mixing(generate_round_graph(graph, t + 1), spec.n)
            if np.linalg.cond(W) > 1e6:
                continue
            Z = np.linalg.solve(W, trace.x_hist[t])
            half = (1.0 - round_params(sched, t + 1).xi) * spec.halfwidth
            assert np.all(np.abs(Z) <= half + 1e-9)
            step = np.linalg.norm(Z - trace.x_hist[t - 1], axis=1)
            assert np.allclose(trace.step_norm[t - 1], step, rtol=1e-9, atol=1e-9)
            on_boundary += int(np.any(np.isclose(np.abs(Z), half, rtol=0.0, atol=1e-9)))
            checked += 1
        assert checked >= trace.rounds // 4
        assert on_boundary > 0  # the projection was active somewhere


class TestInitAgents:
    def test_zeros_rule(self):
        Z = init_agents(3, Box(dim=2, halfwidth=1.0), xi1=0.5)
        assert np.array_equal(Z, np.zeros((3, 2)))

    def test_uniform_rule_lands_in_shrunk_box(self):
        box = Box(dim=4, halfwidth=2.0)
        Z = init_agents(8, box, xi1=0.25, init_rule="uniform", streams=StreamFactory(3))
        assert Z.shape == (8, 4)
        assert np.all(np.abs(Z) <= 1.5)
        assert np.ptp(Z) > 0.0

    def test_uniform_rule_requires_streams(self):
        with pytest.raises(ValueError):
            init_agents(2, Box(dim=1, halfwidth=1.0), xi1=0.5, init_rule="uniform")

    def test_full_shrink_pins_origin(self):
        Z = init_agents(2, Box(dim=2, halfwidth=1.0), xi1=1.0, init_rule="uniform",
                        streams=StreamFactory(0))
        assert np.array_equal(Z, np.zeros((2, 2)))

    def test_xi_range(self):
        with pytest.raises(ValueError):
            init_agents(1, Box(dim=1, halfwidth=1.0), xi1=0.0)


class TestRunHorizon:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            small_run(5, variant="momentum")
        with pytest.raises(ValueError, match="unknown init_rule"):
            run_horizon(5, *small_setup(), init_rule="ones")

    def test_trace_shapes(self):
        T = 30
        trace = small_run(T)
        assert trace.rounds == T - 1
        assert trace.x_hist.shape == (T - 1, 4, 3)
        assert trace.loss.shape == (T - 1, 4)
        assert trace.g_clipped.shape == (T - 1, 4, 2)
        assert trace.step_norm.shape == (T - 1, 4)

    def test_horizon_one_is_empty(self):
        trace = small_run(1)
        assert trace.rounds == 0
        assert trace.x_hist.shape == (0, 4, 3)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            small_run(0)

    def test_run_round_chains_into_run_horizon(self):
        # run_horizon is run_round applied to the (n, p) primal state, round by round.
        spec, sched, graph, box, bounds, Z = round_inputs()
        streams = StreamFactory(spec.seed)
        trace = small_run(5)
        for t in range(1, 5):
            Z, rows = run_round(t, Z, sched, graph, spec, streams, box=box, bounds=bounds)
            assert Z.shape == (spec.n, spec.p)
            for name, row in rows.items():
                assert np.array_equal(row, getattr(trace, name)[t - 1]), name

    def test_trace_records_each_rounds_problem_data(self):
        # The engine draws each round once and keeps the draw; every entry is
        # exactly what materialize gives for that (agent, round).
        spec = small_setup(seed=5, n=3)[0]
        trace = small_run(6, seed=5, n=3)
        assert trace.A.shape == (5, 3, spec.q_i, spec.p)
        assert trace.b.shape == (5, 3, spec.m_i)
        for k in range(trace.rounds):
            for i in range(spec.n):
                inst = materialize(spec, i + 1, k + 1)
                assert np.array_equal(trace.A[k, i], inst.A)
                assert np.array_equal(trace.theta[k, i], inst.theta)
                assert np.array_equal(trace.B[k, i], inst.B)
                assert np.array_equal(trace.b[k, i], inst.b)

    def test_duals_stay_nonnegative_and_decisions_in_box(self):
        trace = small_run(80)
        assert np.all(trace.dual_norm >= 0.0)
        assert np.all(np.abs(trace.x_hist) <= 5.0 + 1e-9)


class TestDeterminism:
    def test_repeat_runs_are_bitwise_identical(self):
        a = small_run(60)
        b = small_run(60)
        assert np.array_equal(a.x_hist, b.x_hist)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.dual_norm, b.dual_norm)

    def test_seed_changes_trajectory(self):
        a = small_run(40, seed=7)
        b = small_run(40, seed=8)
        assert not np.array_equal(a.x_hist, b.x_hist)

    def test_digest_is_equal_across_repeat_runs(self):
        a = small_run(30, seed=7)
        b = small_run(30, seed=7)
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_digest_differs_between_seeds(self):
        a = small_run(30, seed=7)
        b = small_run(30, seed=8)
        assert a.digest() != b.digest()

    def test_digest_sees_one_element_of_x_hist(self):
        trace = small_run(30, seed=7)
        before = trace.digest()
        trace.x_hist[17, 2, 1] = np.nextafter(trace.x_hist[17, 2, 1], np.inf)
        assert trace.digest() != before


class TestVariants:
    def test_clipped_primal_diverges_once_duals_wake(self):
        a = small_run(120, seed=3)
        b = small_run(120, seed=3, variant="clipped-primal")
        assert not np.array_equal(a.x_hist, b.x_hist)

    def test_variants_share_trajectory_while_duals_sleep(self):
        # Until some constraint goes positive the dual is zero and the
        # Jacobian estimate is multiplied away, clipped or not.
        a = small_run(3, seed=3)
        b = small_run(3, seed=3, variant="clipped-primal")
        assert np.array_equal(a.x_hist[:1], b.x_hist[:1])


class TestInvariantEnforcement:
    def test_understated_bounds_trip_the_displacement_check(self, monkeypatch):
        monkeypatch.setattr(engine, "compute_bounds", lambda spec: TINY_BOUNDS)
        with pytest.raises(InvariantViolation):
            small_run(50)

    def test_violation_counter_increments_before_raise(self, monkeypatch):
        monkeypatch.setattr(engine, "compute_bounds", lambda spec: TINY_BOUNDS)
        # the run stops at the first failing round, which the message names
        with pytest.raises(InvariantViolation) as info:
            small_run(50)
        failed_at = int(re.search(r"at t=(\d+),", str(info.value)).group(1))
        assert 1 <= failed_at < 49
        spec, sched, graph, box, _bounds, Z = round_inputs()
        with pytest.raises(InvariantViolation, match="displacement bound failed at t=1,"):
            run_round(1, Z, sched, graph, spec, StreamFactory(spec.seed),
                      box=box, bounds=TINY_BOUNDS)

    @pytest.mark.parametrize("field, entry", [("theta", np.nan), ("b", np.inf)])
    def test_non_finite_feedback_raises(self, monkeypatch, field, entry):
        # A loss (theta) or constraint (b) value that is not finite stops the
        # run at that round and agent, before its state is updated.
        real = engine.materialize_round

        def corrupted(spec, t):
            A, theta, B, b = real(spec, t)
            if t == 3:
                {"theta": theta, "b": b}[field][1, 0] = entry
            return A, theta, B, b

        monkeypatch.setattr(engine, "materialize_round", corrupted)
        with pytest.raises(ValueError, match="non-finite feedback at t=3, agent 2"):
            small_run(10)


# RunTrace field -> the oracle's RoundRecord field
ORACLE_FIELDS = {"x_hist": "x", "loss": "loss", "g_clipped": "g_clipped",
                 "direction_norm": "direction_norm", "step_norm": "step_norm",
                 "dual_norm": "dual_norm", "A": "A", "theta": "theta", "B": "B", "b": "b"}

ORACLE_HALFWIDTH = 2.0
SCHEDULES = {
    "theorem1": ScheduleParams(mode="theorem1", gamma0=2.0, c=0.5, r_X=ORACLE_HALFWIDTH),
    "theorem4": ScheduleParams(mode="theorem4", gamma0=0.5, mu=0.8, r_X=ORACLE_HALFWIDTH),
    "custom": ScheduleParams(
        mode="custom", gamma0=5.0, r_X=ORACLE_HALFWIDTH,
        overrides=ScheduleOverrides(alpha_scale=0.5, alpha_exponent=0.5, xi_scale=0.5,
                                    delta_scale=0.1)),
    # steps far shorter than a clamp onto the shrunk set: trips the step bound
    "custom-tiny-alpha": ScheduleParams(
        mode="custom", gamma0=5.0, r_X=ORACLE_HALFWIDTH,
        overrides=ScheduleOverrides(alpha_scale=1e-12, alpha_exponent=0.5, xi_scale=0.5,
                                    delta_scale=0.1)),
}


def outcome(round_fn, t, Z, sched, graph, spec, bounds, variant):
    """("ok", Z_next, rows) or ("error", type, message) of one round."""
    try:
        Z_next, rows = round_fn(t, Z, sched, graph, spec, StreamFactory(spec.seed), variant,
                                box=Box(dim=spec.p, halfwidth=spec.halfwidth), bounds=bounds)
    except (InvariantViolation, ValueError) as exc:
        return "error", type(exc), str(exc)
    if not isinstance(rows, dict):  # the oracle's RoundRecord
        rows = {name: getattr(rows, attr) for name, attr in ORACLE_FIELDS.items()}
    return "ok", Z_next, rows


class TestPerAgentOracle:
    """The array-shaped round equals the earlier per-agent round bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), p=st.integers(1, 5), q=st.integers(1, 3), m=st.integers(1, 3),
           schedule=st.sampled_from(sorted(SCHEDULES)), variant=st.sampled_from(VARIANTS),
           mu_reg=st.sampled_from([0.0, 0.7]), edge_prob=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**16), t0=st.integers(1, 40),
           spread=st.sampled_from([0.5, 1.0, 1.0, 1.5]),
           understate=st.sampled_from([1.0, 1.0, 1.0, 1e-6]),
           corrupt=st.one_of(st.none(), st.tuples(
               st.sampled_from(["A", "theta", "B", "b"]), st.integers(0, 3), st.integers(0, 19),
               st.sampled_from([np.nan, np.inf, -np.inf]))))
    @example(n=1, p=1, q=1, m=1, schedule="theorem1", variant="paper", mu_reg=0.0, edge_prob=0.0,
             seed=1, t0=1, spread=1.0, understate=1.0, corrupt=None)
    @example(n=4, p=5, q=3, m=3, schedule="theorem4", variant="clipped-primal", mu_reg=0.7,
             edge_prob=0.5, seed=2, t0=3, spread=1.0, understate=1.0, corrupt=None)
    @example(n=3, p=2, q=2, m=1, schedule="custom", variant="paper", mu_reg=0.0, edge_prob=1.0,
             seed=3, t0=5, spread=1.0, understate=1e-6, corrupt=None)
    @example(n=4, p=2, q=1, m=2, schedule="theorem1", variant="clipped-primal", mu_reg=0.0,
             edge_prob=0.5, seed=4, t0=2, spread=1.0, understate=1.0,
             corrupt=("b", 2, 3, np.inf))
    @example(n=3, p=2, q=1, m=1, schedule="custom-tiny-alpha", variant="paper", mu_reg=0.0,
             edge_prob=0.0, seed=1, t0=1, spread=1.5, understate=1.0, corrupt=None)
    def test_rounds_match_the_per_agent_oracle(self, n, p, q, m, schedule, variant, mu_reg,
                                               edge_prob, seed, t0, spread, understate, corrupt):
        # About 20 rounds from a random state; spread > 1 can put consensus points
        # or probes outside the set or trip the step bound, understated bounds
        # trip the displacement check, and a corrupted entry makes the feedback
        # non-finite. Either both rounds raise the same error or every output
        # row is equal.
        spec = RegressionProblemSpec(n=n, p=p, q_i=q, m_i=m, halfwidth=ORACLE_HALFWIDTH,
                                     b_offset=0.05, seed=seed, mu_reg=mu_reg)
        sched = SCHEDULES[schedule]
        graph = GraphSchedule(n=n, edge_prob=edge_prob, backbone=True, seed=seed)
        b0 = compute_bounds(spec)
        bounds = ProblemBounds(F=b0.F, G1=b0.G1 * understate, G2=b0.G2 * understate)
        half = (1.0 - round_params(sched, t0).xi) * spec.halfwidth
        Z = np.random.default_rng(seed).uniform(-half, half, size=(n, p)) * spread

        real = engine.materialize_round

        def draws(spec, t):
            A, theta, B, b = real(spec, t)
            if corrupt is not None and corrupt[1] < n and t == t0 + corrupt[2]:
                field, agent, _k, value = corrupt
                entry = {"A": A, "theta": theta, "B": B, "b": b}[field][agent]
                entry.reshape(-1)[-1] = value
            return A, theta, B, b

        with mock.patch.object(engine, "materialize_round", draws), \
                mock.patch.object(oracle, "materialize_round", draws), \
                np.errstate(invalid="ignore"):  # inf * 0 in a corrupted product
            for t in range(t0, t0 + 20):
                new = outcome(run_round, t, Z, sched, graph, spec, bounds, variant)
                old = outcome(oracle.run_round, t, Z, sched, graph, spec, bounds, variant)
                if old[0] == "error":
                    assert new == old
                    return
                assert new[0] == "ok", new
                assert np.array_equal(new[1], old[1])
                for name in ORACLE_FIELDS:
                    assert np.array_equal(new[2][name], old[2][name]), (name, t)
                Z = new[1]
