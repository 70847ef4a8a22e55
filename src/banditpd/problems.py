"""Seeded problem generators: online least-squares losses with linear constraints.

Every agent i at round t gets a private quadratic loss
f(x) = 0.5 * ||A x - theta||^2 (+ optional ridge) and a private linear
constraint g(x) = B x - b. Parameters are a pure function of (seed, i, t);
the engine draws each round once and its trace keeps the draws, so the
metrics pass can evaluate any agent's functions at any point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import matvec
from .oracle import PURPOSE_PROBLEM, ProblemBounds, StreamFactory

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
    """Realized parameters for one (agent, round) pair, or for every agent of
    a round stacked along a leading agent axis."""

    A: np.ndarray
    theta: np.ndarray
    B: np.ndarray
    b: np.ndarray
    mu_reg: float = 0.0


def materialize(spec: RegressionProblemSpec, i: int, t: int) -> ProblemInstanceAt:
    """Deterministic parameters for agent i at round t.

    Draw order is fixed (A, noise, B, b) on the (i, t, problem) stream;
    theta = A @ ones + clipped standard-normal noise.
    """
    if not (1 <= i <= spec.n):
        raise ValueError(f"agent index {i} outside 1..{spec.n}")
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = StreamFactory(spec.seed).stream(i, t, PURPOSE_PROBLEM)
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


def eval_loss(inst: ProblemInstanceAt, x):
    """f(x), or one value per agent when inst's arrays and x are stacked by agent."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != inst.A.shape[-1]:
        raise ValueError("dimension mismatch in eval_loss")
    r = matvec(inst.A, x) - inst.theta
    value = 0.5 * matvec(r[..., None, :], r)[..., 0]
    if inst.mu_reg:
        value = value + 0.5 * inst.mu_reg * matvec(x[..., None, :], x)[..., 0]
    return value


def eval_constraint(inst: ProblemInstanceAt, x) -> np.ndarray:
    """g(x) = B x - b, or one row per agent when inst's arrays and x are stacked by agent."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != inst.B.shape[-1]:
        raise ValueError("dimension mismatch in eval_constraint")
    return matvec(inst.B, x) - inst.b


def compute_bounds(spec: RegressionProblemSpec) -> ProblemBounds:
    """Analytic worst-case bounds over the box and the generator's entry ranges.

    Constraint rows have entries in [0, 2], so the spectral norm of B is at
    most its Frobenius bound 2 sqrt(m_i p), which is G2. For the loss:
    ||A||_2 <= sqrt(q_i p) (entries in [-1, 1]), noise entries are clipped to
    [-NOISE_CLIP, NOISE_CLIP], hence
        ||theta|| <= ||A|| * sqrt(p) + NOISE_CLIP * sqrt(q_i)
        ||grad f(x)|| = ||A^T (A x - theta)|| <= ||A|| (||A|| R + ||theta||)
    with R = halfwidth * sqrt(p), plus mu_reg * R for the ridge term. F bounds
    0.5 * (||A|| R + ||theta||)^2 (+ ridge) the same way. The bounds hold
    uniformly over every round. A halfwidth or mu_reg large enough to
    overflow them raises ValueError naming that field.
    """
    p, q, m = spec.p, spec.q_i, spec.m_i
    with np.errstate(over="ignore", invalid="ignore"):
        R = spec.halfwidth * np.sqrt(p)
        a_norm = np.sqrt(q * p)
        theta_norm = a_norm * np.sqrt(p) + NOISE_CLIP * np.sqrt(q)
        residual = a_norm * R + theta_norm
        F_loss = 0.5 * residual**2
        G1 = float(a_norm * residual + spec.mu_reg * R)
        F = float(F_loss + 0.5 * spec.mu_reg * R**2)
    if not np.isfinite(F_loss):
        raise ValueError(f"halfwidth={spec.halfwidth:g} overflows the loss bound F")
    if not (np.isfinite(G1) and np.isfinite(F)):
        raise ValueError(f"mu_reg={spec.mu_reg:g} overflows the loss bounds F and G1")
    return ProblemBounds(F=F, G1=G1, G2=float(2.0 * np.sqrt(m * p)))
