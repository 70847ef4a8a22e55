import re

import numpy as np
import pytest

from banditpd.engine import (
    InvariantViolation,
    assemble_direction,
    consensus_step,
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
from banditpd.schedule import ScheduleParams, round_params

TINY_BOUNDS = ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12)


def small_setup(seed=7, n=4, p=3):
    """(spec, schedule, graph): run_horizon's arguments after the horizon."""
    spec = RegressionProblemSpec(n=n, p=p, q_i=2, m_i=2, halfwidth=5.0,
                                 b_offset=0.01, seed=seed)
    sched = ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=5.0,
                           theorem_compliant=False)
    graph = GraphSchedule(n=n, edge_prob=0.5, backbone=True, seed=seed)
    return spec, sched, graph


def small_run(T, seed=7, n=4, p=3, variant="paper"):
    return run_horizon(T, *small_setup(seed, n, p), variant=variant)


class TestPieces:
    def test_consensus_is_weighted_average(self):
        Z = np.array([[4.0, 0.0], [2.0, 2.0]])
        W = np.full((2, 2), 0.5)
        X = consensus_step(Z, W)
        assert np.allclose(X, [[3.0, 1.0], [3.0, 1.0]])
        assert np.array_equal(Z, [[4.0, 0.0], [2.0, 2.0]])  # the input state is not touched

    def test_consensus_rejects_wrong_matrix_shape(self):
        with pytest.raises(ValueError):
            consensus_step(np.zeros((1, 2)), np.eye(2))

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

    def test_direction_combines_gradient_and_jacobian(self):
        grad = np.array([1.0, 2.0])
        jac = np.array([[1.0, 0.0], [0.0, 2.0]])
        q = np.array([3.0, 0.5])
        assert np.allclose(assemble_direction(grad, jac, q), [4.0, 3.0])

    def test_direction_shape_mismatch(self):
        with pytest.raises(ValueError):
            assemble_direction(np.zeros(2), np.zeros((3, 1)), np.zeros(1))

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
        spec, sched, graph = small_setup()
        box = Box(dim=spec.p, halfwidth=spec.halfwidth)
        streams = StreamFactory(spec.seed)
        Z = init_agents(spec.n, box, round_params(sched, 1).xi)
        trace = small_run(5)
        for t in range(1, 5):
            Z, rec = run_round(t, Z, sched, graph, spec, streams,
                               box=box, bounds=compute_bounds(spec))
            assert rec.t == t and Z.shape == (spec.n, spec.p)
            assert np.array_equal(rec.x, trace.x_hist[t - 1])
            assert np.array_equal(rec.step_norm, trace.step_norm[t - 1])
            assert np.array_equal(rec.dual_norm, trace.dual_norm[t - 1])
            assert np.array_equal(rec.B, trace.B[t - 1])

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
        spec, sched, graph = small_setup()
        box = Box(dim=spec.p, halfwidth=spec.halfwidth)
        Z = init_agents(spec.n, box, round_params(sched, 1).xi)
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
