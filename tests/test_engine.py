import re

import numpy as np
import pytest

from banditpd.engine import (
    INVARIANT_NAMES,
    InvariantViolation,
    RunConfig,
    assemble_direction,
    consensus_step,
    init_agents,
    run_horizon,
    run_round,
)
from banditpd.geometry import Box
from banditpd.network import GraphSchedule, build_mixing, generate_round_graph
from banditpd.oracle import ProblemBounds, StreamFactory
from banditpd.problems import (
    RegressionAdversary,
    RegressionProblemSpec,
    compute_bounds,
    eval_constraint,
    materialize,
)
from banditpd.schedule import ScheduleParams, round_params


def small_config(seed=7, n=4, p=3, T_bounds=200, variant="paper", **kwargs):
    spec = RegressionProblemSpec(n=n, p=p, q_i=2, m_i=2, halfwidth=5.0,
                                 b_offset=0.01, seed=seed)
    sched = ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=5.0,
                           theorem_compliant=False)
    graph = GraphSchedule(n=n, edge_prob=0.5, backbone=True, seed=seed)
    return RunConfig(problem=spec, schedule=sched, graph=graph, variant=variant,
                     bounds=compute_bounds(spec, T_bounds), **kwargs)


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
        cfg = small_config()
        trace = run_horizon(60, cfg)
        assert np.any(trace.g_clipped > 0.0) and np.any(trace.dual_norm == 0.0)
        for k in range(trace.rounds):
            t = k + 1
            gamma = round_params(cfg.schedule, t).gamma
            expected = gamma * np.linalg.norm(trace.g_clipped[k], axis=1)
            assert np.allclose(trace.dual_norm[k], expected, rtol=1e-12, atol=0.0)
            for i in range(cfg.problem.n):
                g = eval_constraint(materialize(cfg.problem, i + 1, t), trace.x_hist[k, i])
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
        cfg = small_config()
        trace = run_horizon(40, cfg)
        checked = on_boundary = 0
        for t in range(1, trace.rounds):
            W = build_mixing(generate_round_graph(cfg.graph, t + 1), cfg.problem.n).entries
            if np.linalg.cond(W) > 1e6:
                continue
            Z = np.linalg.solve(W, trace.x_hist[t])
            half = (1.0 - round_params(cfg.schedule, t + 1).xi) * cfg.problem.halfwidth
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


class TestRunConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            small_config(variant="momentum")

    def test_bad_invariant_flag(self):
        with pytest.raises(ValueError):
            small_config(check_invariants="lenient")


class TestRunHorizon:
    def test_trace_shapes(self):
        T = 30
        trace = run_horizon(T, small_config())
        assert trace.rounds == T - 1
        assert trace.x_hist.shape == (T - 1, 4, 3)
        assert trace.loss.shape == (T - 1, 4)
        assert trace.g_clipped.shape == (T - 1, 4, 2)
        assert trace.step_norm.shape == (T - 1, 4)

    def test_horizon_one_is_empty(self):
        trace = run_horizon(1, small_config())
        assert trace.rounds == 0
        assert trace.x_hist.shape == (0, 4, 3)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            run_horizon(0, small_config())

    def test_run_round_chains_into_run_horizon(self):
        # run_horizon is run_round applied to the (n, p) primal state, round by round.
        cfg = small_config()
        spec = cfg.problem
        box = Box(dim=spec.p, halfwidth=spec.halfwidth)
        streams = StreamFactory(spec.seed)
        adversary = RegressionAdversary(spec)
        Z = init_agents(spec.n, box, round_params(cfg.schedule, 1).xi)
        trace = run_horizon(5, cfg)
        for t in range(1, 5):
            Z, rec = run_round(t, Z, cfg.schedule, cfg.graph, adversary, streams,
                               box=box, bounds=cfg.bounds)
            assert rec.t == t and Z.shape == (spec.n, spec.p)
            assert np.array_equal(rec.x, trace.x_hist[t - 1])
            assert np.array_equal(rec.step_norm, trace.step_norm[t - 1])
            assert np.array_equal(rec.dual_norm, trace.dual_norm[t - 1])

    def test_clean_run_leaves_counters_at_zero(self):
        trace = run_horizon(100, small_config())
        assert set(trace.invariant_counters) == set(INVARIANT_NAMES)
        assert all(v == 0 for v in trace.invariant_counters.values())

    def test_duals_stay_nonnegative_and_decisions_in_box(self):
        trace = run_horizon(80, small_config())
        assert np.all(trace.dual_norm >= 0.0)
        assert np.all(np.abs(trace.x_hist) <= 5.0 + 1e-9)


class TestDeterminism:
    def test_repeat_runs_are_bitwise_identical(self):
        a = run_horizon(60, small_config())
        b = run_horizon(60, small_config())
        assert np.array_equal(a.x_hist, b.x_hist)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.dual_norm, b.dual_norm)

    def test_seed_changes_trajectory(self):
        a = run_horizon(40, small_config(seed=7))
        b = run_horizon(40, small_config(seed=8))
        assert not np.array_equal(a.x_hist, b.x_hist)

    def test_fingerprint_tracks_run_identity(self):
        a = run_horizon(5, small_config(seed=7))
        b = run_horizon(5, small_config(seed=7))
        c = run_horizon(5, small_config(seed=8))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_digest_is_equal_across_repeat_runs(self):
        a = run_horizon(30, small_config(seed=7))
        b = run_horizon(30, small_config(seed=7))
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_digest_differs_between_seeds(self):
        a = run_horizon(30, small_config(seed=7))
        b = run_horizon(30, small_config(seed=8))
        assert a.digest() != b.digest()

    def test_digest_sees_one_element_of_x_hist(self):
        # The fingerprint names the run; the digest also covers the trajectory.
        trace = run_horizon(30, small_config(seed=7))
        before, fingerprint = trace.digest(), trace.fingerprint()
        trace.x_hist[17, 2, 1] = np.nextafter(trace.x_hist[17, 2, 1], np.inf)
        assert trace.digest() != before
        assert trace.fingerprint() == fingerprint


class TestVariants:
    def test_clipped_primal_diverges_once_duals_wake(self):
        a = run_horizon(120, small_config(seed=3))
        b = run_horizon(120, small_config(seed=3, variant="clipped-primal"))
        assert a.variant == "paper" and b.variant == "clipped-primal"
        assert not np.array_equal(a.x_hist, b.x_hist)

    def test_variants_share_trajectory_while_duals_sleep(self):
        # Until some constraint goes positive the dual is zero and the
        # Jacobian estimate is multiplied away, clipped or not.
        a = run_horizon(3, small_config(seed=3))
        b = run_horizon(3, small_config(seed=3, variant="clipped-primal"))
        assert np.array_equal(a.x_hist[:1], b.x_hist[:1])


class TestInvariantEnforcement:
    def test_understated_bounds_trip_the_displacement_check(self):
        cfg = small_config()
        cfg.bounds = ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12)
        with pytest.raises(InvariantViolation):
            run_horizon(50, cfg)

    def test_check_off_skips_enforcement(self):
        cfg = small_config(check_invariants="off")
        cfg.bounds = ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12)
        trace = run_horizon(50, cfg)
        assert trace.rounds == 49

    def test_violation_counter_increments_before_raise(self):
        cfg = small_config()
        cfg.bounds = ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12)
        # the run stops at the first failing round, which the message names
        with pytest.raises(InvariantViolation) as info:
            run_horizon(50, cfg)
        failed_at = int(re.search(r"at t=(\d+),", str(info.value)).group(1))
        assert 1 <= failed_at < 49
        # a caller-owned counter dict records the failure before the raise
        spec = cfg.problem
        box = Box(dim=spec.p, halfwidth=spec.halfwidth)
        counters = {name: 0 for name in INVARIANT_NAMES}
        Z = init_agents(spec.n, box, round_params(cfg.schedule, 1).xi)
        with pytest.raises(InvariantViolation, match="displacement bound"):
            run_round(1, Z, cfg.schedule, cfg.graph, RegressionAdversary(spec),
                      StreamFactory(spec.seed), box=box, bounds=cfg.bounds, counters=counters)
        assert counters["displacement_bound"] == 1
        assert sum(counters.values()) == 1
