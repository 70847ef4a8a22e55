"""Seeded problem generators: online least-squares losses with linear constraints.

Every agent i at round t gets a private quadratic loss
f(x) = 0.5 * ||A x - theta||^2 (+ optional ridge) and a private linear
constraint g(x) = B x - b. Parameters are regenerated on demand from
(seed, i, t), never stored, so metric passes can re-evaluate any function at
any point while traces stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import PURPOSE_PROBLEM, FeedbackValues, ProblemBounds, StreamFactory

# Gaussian noise entries are clipped to this band so the uniform loss bound F
# is a true deterministic bound rather than an almost-sure one.
NOISE_CLIP = 6.0


@dataclass(frozen=True)
class RegressionProblemSpec:
    """Dimensions and ranges of the generated problem family.

    b_offset > 0 is both the lower edge of the constraint offsets and the
    strict-feasibility margin of the origin. mu_reg adds a ridge term
    (mu_reg / 2) * ||x||^2 to every loss, giving a certified strong-convexity
    parameter when one is needed.
    """

    n: int
    p: int
    q_i: int
    m_i: int
    halfwidth: float
    b_offset: float
    seed: int
    mu_reg: float = 0.0

    def __post_init__(self):
        if min(self.n, self.p, self.q_i, self.m_i) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not self.halfwidth > 0:
            raise ValueError("halfwidth must be positive")
        if not self.b_offset > 0:
            raise ValueError("b_offset must be positive")
        if self.mu_reg < 0:
            raise ValueError("mu_reg must be nonnegative")


@dataclass(frozen=True)
class ProblemInstanceAt:
    """Realized parameters for one (agent, round) pair."""

    A: np.ndarray
    theta: np.ndarray
    B: np.ndarray
    b: np.ndarray
    mu_reg: float = 0.0


@dataclass(frozen=True)
class SlaterCertificate:
    point: np.ndarray
    margin: float


def materialize(spec: RegressionProblemSpec, i: int, t: int) -> ProblemInstanceAt:
    """Deterministic parameters for agent i at round t.

    Draw order is fixed (A, noise, B, b) on the (i, t, problem) stream;
    theta = A @ ones + clipped standard-normal noise.
    """
    if not (1 <= i <= spec.n):
        raise ValueError(f"agent index {i} outside 1..{spec.n}")
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = StreamFactory(spec.seed).agent_round(i, t, PURPOSE_PROBLEM)
    A = rng.uniform(-1.0, 1.0, size=(spec.q_i, spec.p))
    zeta = np.clip(rng.standard_normal(spec.q_i), -NOISE_CLIP, NOISE_CLIP)
    theta = A @ np.ones(spec.p) + zeta
    B = rng.uniform(0.0, 2.0, size=(spec.m_i, spec.p))
    b = rng.uniform(spec.b_offset, spec.b_offset + 1.0, size=spec.m_i)
    return ProblemInstanceAt(A=A, theta=theta, B=B, b=b, mu_reg=spec.mu_reg)


def materialize_round(spec: RegressionProblemSpec, t: int):
    """Stacked parameters of all agents at round t: (A, theta, B, b) arrays.

    Shapes are (n, q_i, p), (n, q_i), (n, m_i, p), (n, m_i). Uses the same
    per-agent streams as materialize, so entries match it exactly.
    """
    A = np.empty((spec.n, spec.q_i, spec.p))
    theta = np.empty((spec.n, spec.q_i))
    B = np.empty((spec.n, spec.m_i, spec.p))
    b = np.empty((spec.n, spec.m_i))
    for i in range(1, spec.n + 1):
        inst = materialize(spec, i, t)
        A[i - 1], theta[i - 1], B[i - 1], b[i - 1] = inst.A, inst.theta, inst.B, inst.b
    return A, theta, B, b


def eval_loss(inst: ProblemInstanceAt, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != inst.A.shape[1]:
        raise ValueError("dimension mismatch in eval_loss")
    r = inst.A @ x - inst.theta
    value = 0.5 * float(r @ r)
    if inst.mu_reg:
        value += 0.5 * inst.mu_reg * float(x @ x)
    return value


def eval_constraint(inst: ProblemInstanceAt, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != inst.B.shape[1]:
        raise ValueError("dimension mismatch in eval_constraint")
    return inst.B @ x - inst.b


def slater_certificate(spec: RegressionProblemSpec) -> SlaterCertificate:
    """The origin is strictly feasible with margin b_offset: g(0) = -b <= -b_offset."""
    if not spec.b_offset > 0:
        raise ValueError("no certificate: b_offset must be positive")
    return SlaterCertificate(point=np.zeros(spec.p), margin=spec.b_offset)


def compute_bounds(spec: RegressionProblemSpec, horizon: int) -> ProblemBounds:
    """Analytic worst-case bounds over the box and the generator's entry ranges.

    Constraint rows have entries in [0, 2], so the spectral norm of B is at
    most its Frobenius bound 2 sqrt(m_i p), which is G2. For the loss:
    ||A||_2 <= sqrt(q_i p) (entries in [-1, 1]), noise entries are clipped to
    [-NOISE_CLIP, NOISE_CLIP], hence
        ||theta|| <= ||A|| * sqrt(p) + NOISE_CLIP * sqrt(q_i)
        ||grad f(x)|| = ||A^T (A x - theta)|| <= ||A|| (||A|| R + ||theta||)
    with R = halfwidth * sqrt(p), plus mu_reg * R for the ridge term. F bounds
    0.5 * (||A|| R + ||theta||)^2 (+ ridge) the same way. The horizon argument
    is kept for interface symmetry; the bounds are horizon-uniform.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p, q, m = spec.p, spec.q_i, spec.m_i
    R = spec.halfwidth * np.sqrt(p)
    a_norm = np.sqrt(q * p)
    theta_norm = a_norm * np.sqrt(p) + NOISE_CLIP * np.sqrt(q)
    residual = a_norm * R + theta_norm
    G1 = float(a_norm * residual + spec.mu_reg * R)
    G2 = float(2.0 * np.sqrt(m * p))
    F = float(0.5 * residual**2 + 0.5 * spec.mu_reg * R**2)
    return ProblemBounds(F=F, G1=G1, G2=G2)


class RegressionAdversary:
    """Bandit interface over the generated problems: values at two points only.

    The engine sees nothing but FeedbackValues; parameters stay private to
    this module. The engine queries each (i, t) once, so parameters are drawn
    afresh on every call.
    """

    def __init__(self, spec: RegressionProblemSpec):
        self.spec = spec

    def instance(self, i: int, t: int) -> ProblemInstanceAt:
        return materialize(self.spec, i, t)

    def feedback(self, i: int, t: int, x, probe) -> FeedbackValues:
        inst = self.instance(i, t)
        return FeedbackValues(
            f_at_x=eval_loss(inst, x),
            f_at_probe=eval_loss(inst, probe),
            g_at_x=eval_constraint(inst, x),
            g_at_probe=eval_constraint(inst, probe),
        )
