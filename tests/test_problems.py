import numpy as np
import pytest

from banditpd.oracle import PURPOSE_PROBLEM, StreamFactory
from banditpd.problems import (
    ProblemInstanceAt,
    RegressionProblemSpec,
    compute_bounds,
    eval_constraint,
    eval_loss,
    materialize,
    materialize_round,
)

SPEC = RegressionProblemSpec(n=4, p=3, q_i=2, m_i=2, halfwidth=5.0,
                             b_offset=0.01, seed=123)


def test_spec_validation():
    with pytest.raises(ValueError):
        RegressionProblemSpec(n=0, p=3, q_i=2, m_i=2, halfwidth=5.0,
                              b_offset=0.01, seed=1)
    with pytest.raises(ValueError):
        RegressionProblemSpec(n=2, p=3, q_i=2, m_i=2, halfwidth=5.0,
                              b_offset=0.0, seed=1)
    with pytest.raises(ValueError):
        RegressionProblemSpec(n=2, p=3, q_i=2, m_i=2, halfwidth=5.0,
                              b_offset=0.01, seed=1, mu_reg=-1.0)


def test_materialize_shapes_and_ranges():
    inst = materialize(SPEC, 2, 7)
    assert inst.A.shape == (2, 3)
    assert inst.theta.shape == (2,)
    assert inst.B.shape == (2, 3)
    assert inst.b.shape == (2,)
    assert np.all(np.abs(inst.A) <= 1.0)
    assert np.all(inst.B >= 0.0) and np.all(inst.B <= 2.0)
    assert np.all(inst.b >= SPEC.b_offset) and np.all(inst.b <= SPEC.b_offset + 1.0)
    # theta = A @ 1 + noise with the noise clipped to +/- 6.
    noise = inst.theta - inst.A @ np.ones(3)
    assert np.all(np.abs(noise) <= 6.0)


def test_materialize_deterministic_and_time_varying():
    a = materialize(SPEC, 1, 5)
    b = materialize(SPEC, 1, 5)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    c = materialize(SPEC, 1, 6)
    assert not np.array_equal(a.A, c.A)
    d = materialize(SPEC, 2, 5)
    assert not np.array_equal(a.A, d.A)


def test_materialize_uses_problem_purpose_stream():
    # The draws must come from the (agent, round, problem) stream so that
    # direction sampling can never shift them.
    inst = materialize(SPEC, 3, 9)
    rng = StreamFactory(SPEC.seed).stream(3, 9, PURPOSE_PROBLEM)
    A = rng.uniform(-1.0, 1.0, size=(2, 3))
    assert np.array_equal(inst.A, A)


def test_materialize_round_matches_per_agent():
    A, theta, B, b = materialize_round(SPEC, 4)
    for i in range(1, SPEC.n + 1):
        inst = materialize(SPEC, i, 4)
        assert np.array_equal(A[i - 1], inst.A)
        assert np.array_equal(theta[i - 1], inst.theta)
        assert np.array_equal(B[i - 1], inst.B)
        assert np.array_equal(b[i - 1], inst.b)


def test_stacked_evaluation_matches_per_agent():
    # The engine evaluates every agent of a round at once; each row has the
    # bits of that agent's own evaluation.
    spec = RegressionProblemSpec(n=5, p=3, q_i=2, m_i=2, halfwidth=5.0,
                                 b_offset=0.01, seed=8, mu_reg=0.3)
    X = np.random.default_rng(2).uniform(-5.0, 5.0, size=(spec.n, spec.p))
    stacked = ProblemInstanceAt(*materialize_round(spec, 6), mu_reg=spec.mu_reg)
    losses, values = eval_loss(stacked, X), eval_constraint(stacked, X)
    for i in range(spec.n):
        inst = materialize(spec, i + 1, 6)
        assert losses[i] == eval_loss(inst, X[i])
        assert np.array_equal(values[i], eval_constraint(inst, X[i]))


def test_index_validation():
    with pytest.raises(ValueError):
        materialize(SPEC, 0, 1)
    with pytest.raises(ValueError):
        materialize(SPEC, 5, 1)
    with pytest.raises(ValueError):
        materialize(SPEC, 1, 0)


def test_eval_loss_hand_value():
    inst = materialize(SPEC, 1, 1)
    x = np.zeros(3)
    assert eval_loss(inst, x) == pytest.approx(0.5 * float(inst.theta @ inst.theta))


def test_eval_loss_ridge_term():
    spec = RegressionProblemSpec(n=2, p=3, q_i=2, m_i=1, halfwidth=5.0,
                                 b_offset=0.01, seed=9, mu_reg=2.0)
    inst = materialize(spec, 1, 1)
    x = np.array([1.0, 0.0, -1.0])
    r = inst.A @ x - inst.theta
    assert eval_loss(inst, x) == pytest.approx(0.5 * float(r @ r) + 2.0)


def test_eval_constraint_hand_value():
    class Inst:
        B = np.array([[1.0, 1.0]])
        b = np.array([1.0])
    assert np.array_equal(eval_constraint(Inst, [2.0, 0.0]), [1.0])


def test_loss_is_convex_along_segments():
    inst = materialize(SPEC, 2, 3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, size=(2, 3))
        mid = 0.5 * (x + y)
        assert eval_loss(inst, mid) <= 0.5 * (eval_loss(inst, x) + eval_loss(inst, y)) + 1e-9


def test_compute_bounds_formulas():
    bounds = compute_bounds(SPEC)
    q, p, m, h = SPEC.q_i, SPEC.p, SPEC.m_i, SPEC.halfwidth
    a_norm = np.sqrt(q * p)
    theta_norm = a_norm * np.sqrt(p) + 6.0 * np.sqrt(q)
    residual = a_norm * h * np.sqrt(p) + theta_norm
    assert bounds.G2 == pytest.approx(2.0 * np.sqrt(m * p))
    assert bounds.G1 == pytest.approx(a_norm * residual)
    assert bounds.F == pytest.approx(0.5 * residual ** 2)


def test_bounds_overflow_names_the_field():
    big_box = RegressionProblemSpec(n=2, p=3, q_i=2, m_i=2, halfwidth=1e200,
                                    b_offset=0.01, seed=1)
    with pytest.raises(ValueError, match="^halfwidth="):
        compute_bounds(big_box)
    big_ridge = RegressionProblemSpec(n=2, p=3, q_i=2, m_i=2, halfwidth=5.0,
                                      b_offset=0.01, seed=1, mu_reg=1e308)
    with pytest.raises(ValueError, match="^mu_reg="):
        compute_bounds(big_ridge)


def test_bounds_dominate_sampled_gradients():
    bounds = compute_bounds(SPEC)
    rng = np.random.default_rng(1)
    box_pts = rng.uniform(-SPEC.halfwidth, SPEC.halfwidth, size=(64, 3))
    for t in range(1, 11):
        for i in range(1, SPEC.n + 1):
            inst = materialize(SPEC, i, t)
            assert np.linalg.norm(inst.B) <= bounds.G2 + 1e-12
            for x in box_pts[:8]:
                grad = inst.A.T @ (inst.A @ x - inst.theta)
                assert np.linalg.norm(grad) <= bounds.G1 + 1e-9
                assert eval_loss(inst, x) <= bounds.F + 1e-9


def test_theta_noise_is_clipped_standard_normal():
    # Across many rounds the noise should look standard normal; a crude
    # moment check guards the distribution without being flaky.
    spec = RegressionProblemSpec(n=1, p=2, q_i=4, m_i=1, halfwidth=5.0,
                                 b_offset=0.01, seed=77)
    noise = []
    for t in range(1, 2001):
        inst = materialize(spec, 1, t)
        noise.extend(inst.theta - inst.A @ np.ones(2))
    noise = np.asarray(noise)
    assert abs(noise.mean()) < 0.05
    assert abs(noise.std() - 1.0) < 0.05
