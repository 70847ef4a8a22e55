import numpy as np
import pytest

from banditpd.oracle import (
    PURPOSE_DIRECTION,
    PURPOSE_EDGES,
    PURPOSE_INIT,
    PURPOSE_PROBLEM,
    ProblemBounds,
    StreamFactory,
    estimate_constraint_jacobian,
    estimate_loss_grad,
    sample_unit_sphere,
)
from oracles.smoothed_value import sample_unit_ball, smoothed_value_mc  # tests/oracles


def test_purpose_tags_are_distinct():
    assert len({PURPOSE_DIRECTION, PURPOSE_PROBLEM, PURPOSE_EDGES, PURPOSE_INIT}) == 4


def test_stream_reproducible_and_keyed():
    factory = StreamFactory(7)
    a = factory.stream(3, 11, PURPOSE_DIRECTION).uniform(size=4)
    b = StreamFactory(7).stream(3, 11, PURPOSE_DIRECTION).uniform(size=4)
    assert np.array_equal(a, b)
    c = factory.stream(3, 12, PURPOSE_DIRECTION).uniform(size=4)
    assert not np.array_equal(a, c)


def test_stream_order_independent():
    # Drawing from one keyed stream never disturbs another.
    factory = StreamFactory(42)
    lone = factory.stream(1, 2, 3).normal(size=8)
    factory.stream(9, 9, 9).normal(size=1000)
    again = StreamFactory(42)
    again.stream(9, 9, 9).normal(size=1000)
    assert np.array_equal(lone, again.stream(1, 2, 3).normal(size=8))


def test_stream_factory_validates_seed():
    with pytest.raises(ValueError):
        StreamFactory(-1)


def test_sphere_sample_is_unit_norm():
    rng = StreamFactory(0).stream(0)
    for p in (1, 2, 5, 17):
        u = sample_unit_sphere(rng, p)
        assert u.shape == (p,)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_ball_samples_stay_inside():
    rng = StreamFactory(1).stream(0)
    draws = np.array([sample_unit_ball(rng, 3) for _ in range(200)])
    norms = np.linalg.norm(draws, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    # Radial CDF r^p means mean norm p/(p+1); loose MC check.
    assert abs(norms.mean() - 0.75) < 0.05


def test_two_point_sample_validation():
    # the probe radius delta of the sample (u, delta) must be positive
    u = np.array([1.0, 0.0])
    for delta in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError):
            estimate_loss_grad(0.0, 0.0, u, delta, p=2)
        with pytest.raises(ValueError):
            estimate_constraint_jacobian(np.zeros(1), np.zeros(1), u, delta, p=2)


def test_problem_bounds_positive():
    with pytest.raises(ValueError):
        ProblemBounds(F=1.0, G1=0.0, G2=1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ProblemBounds(F=1.0, G1=bad, G2=1.0)


def test_loss_grad_frozen_one_dim():
    # f(y) = y^2 at x = 1, delta = 0.1: probe up gives slope estimate 2.1,
    # probe down gives 1.9.
    x = 1.0
    delta = 0.1
    for direction, expected in ((1.0, 2.1), (-1.0, 1.9)):
        probe = x + delta * direction
        est = estimate_loss_grad(x * x, probe * probe, np.array([direction]), delta, p=1)
        assert est[0] == pytest.approx(expected, abs=1e-12)


def test_constraint_jacobian_frozen_two_dim():
    # g linear with rows (2, 0) and (0, 0) sensed along u = (1, 0):
    # estimate rows are u * (p/delta) * (g(probe) - g(x)).
    jac = estimate_constraint_jacobian(np.array([1.0, 3.0]), np.array([2.0, 3.0]),
                                       np.array([1.0, 0.0]), 0.5, p=2)
    assert jac.shape == (2, 2)
    assert np.allclose(jac, [[4.0, -0.0], [0.0, -0.0]])


def test_loss_grad_exact_for_linear_function():
    # Two-point differences are exact on affine functions whatever delta is.
    rng = StreamFactory(5).stream(0)
    slope = np.array([2.0, -3.0, 0.5])
    x = np.array([0.3, 0.1, -0.2])
    for _ in range(25):
        u = sample_unit_sphere(rng, 3)
        est = estimate_loss_grad(float(slope @ x), float(slope @ (x + 0.05 * u)), u, 0.05, p=3)
        # Estimate is 3 * (slope @ u) u; its mean over u is slope.
        assert np.allclose(est, 3.0 * float(slope @ u) * u, atol=1e-12)


def test_gradient_estimator_mean_matches_gradient():
    # f(x) = ||x||^2: smoothed-gradient estimates average to 2x.
    rng = StreamFactory(11).stream(0)
    x = np.array([0.7, -0.4])
    delta = 1e-3
    total = np.zeros(2)
    n = 20_000
    for _ in range(n):
        u = sample_unit_sphere(rng, 2)
        probe = x + delta * u
        total += estimate_loss_grad(float(x @ x), float(probe @ probe), u, delta, p=2)
    mean = total / n
    # SE of each component is ~ p*|f'|/sqrt(n); stay well inside 4 SE.
    assert np.allclose(mean, 2.0 * x, atol=0.06)


def test_estimate_norm_bound_fuzz():
    # |estimate| <= (p/delta) |f(probe) - f(x)| <= p G1 when f is G1-Lipschitz
    # on the segment; exact inequality, no tolerance.
    rng = StreamFactory(3).stream(0)
    p = 4
    slope = np.array([1.0, -2.0, 0.5, 3.0])
    g1 = float(np.linalg.norm(slope))
    for _ in range(500):
        u = sample_unit_sphere(rng, p)
        delta = float(rng.uniform(1e-4, 1.0))
        x = rng.uniform(-1, 1, size=p)
        est = estimate_loss_grad(float(slope @ x), float(slope @ (x + delta * u)), u, delta, p=p)
        assert np.linalg.norm(est) <= p * g1


def test_smoothed_value_exact_at_zero_radius():
    rng = StreamFactory(9).stream(0)
    f = lambda x: float(x @ x)
    assert smoothed_value_mc(f, np.array([1.0, 2.0]), 0.0, 100, rng) == 5.0


def test_smoothed_value_sandwich_quadratic():
    # Convexity gives f(x) <= E f(x + delta v) and Lipschitzness bounds the
    # gap by G1 * delta; checked within MC error.
    rng = StreamFactory(13).stream(0)
    x = np.array([0.5, -0.25])
    f = lambda y: float(y @ y)
    delta = 0.05
    val = smoothed_value_mc(f, x, delta, 40_000, rng)
    g1 = 2.0 * (np.linalg.norm(x) + delta)
    assert val >= f(x) - 1e-4
    assert val <= f(x) + g1 * delta + 1e-4


def test_estimators_take_a_leading_agent_axis():
    # Row i of the stacked estimates is agent i's own estimate, bit for bit.
    rng = np.random.default_rng(4)
    n, p, m, delta = 4, 3, 2, 0.1
    f_x, f_probe = rng.standard_normal(n), rng.standard_normal(n)
    g_x, g_probe = rng.standard_normal((n, m)), rng.standard_normal((n, m))
    u = rng.standard_normal((n, p))
    grads = estimate_loss_grad(f_x, f_probe, u, delta, p)
    jacs = estimate_constraint_jacobian(g_x, g_probe, u, delta, p)
    assert grads.shape == (n, p) and jacs.shape == (n, p, m)
    for i in range(n):
        assert np.array_equal(grads[i], estimate_loss_grad(float(f_x[i]), float(f_probe[i]),
                                                           u[i], delta, p))
        assert np.array_equal(jacs[i], estimate_constraint_jacobian(g_x[i], g_probe[i], u[i],
                                                                    delta, p))
