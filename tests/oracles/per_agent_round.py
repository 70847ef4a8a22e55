"""Reference round: the engine's earlier per-agent implementation, kept verbatim.

run_round here updates one agent at a time through _update_agent and checks
the invariants in a second loop over the agents, with the per-agent helpers
(mixing, estimators, projection, loss and constraint values) it was written
against. The engine's array-shaped round must agree with it bit for bit,
including which agent and invariant an error names. Only the draws are shared
with the package: the direction streams, the round's problem data and the
per-round schedule values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from banditpd.engine import MEMBERSHIP_TOL, STEP_TOL, InvariantViolation
from banditpd.geometry import Box
from banditpd.network import backbone_edges
from banditpd.oracle import (
    PURPOSE_DIRECTION,
    PURPOSE_EDGES,
    ProblemBounds,
    StreamFactory,
    sample_unit_sphere,
)
from banditpd.problems import ProblemInstanceAt, RegressionProblemSpec, materialize_round
from banditpd.schedule import ScheduleParams, round_params


# --- per-agent helpers, as the per-agent round called them ---

def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def clip_nonneg(v) -> np.ndarray:
    """Componentwise max(v, 0)."""
    return np.maximum(as_vector(v), 0.0)


def project_scaled(box: Box, x, shrink: float) -> np.ndarray:
    """Project onto the box scaled by (1 - shrink); shrink = 1 collapses to the origin."""
    if not (0.0 <= shrink <= 1.0):
        raise ValueError(f"shrink must be in [0, 1], got {shrink}")
    v = as_vector(x)
    if v.shape[0] != box.dim:
        raise ValueError(f"dimension mismatch: set is {box.dim}-D, point is {v.shape[0]}-D")
    half = (1.0 - shrink) * box.halfwidth
    return np.clip(v, -half, half)


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


def estimate_loss_grad(f_x: float, f_probe: float, u: np.ndarray, delta: float,
                       p: int) -> np.ndarray:
    """Two-point gradient estimate (p/delta) * (f(x + delta u) - f(x)) * u."""
    if not delta > 0:
        raise ValueError("probe radius must be positive")
    scale = (p / delta) * (f_probe - f_x)
    return scale * u


def estimate_constraint_jacobian(g_x: np.ndarray, g_probe: np.ndarray, u: np.ndarray,
                                 delta: float, p: int) -> np.ndarray:
    """Rank-1 Jacobian estimate outer(u, d) with d = (p/delta) * (g(x + delta u) - g(x))."""
    if not delta > 0:
        raise ValueError("probe radius must be positive")
    d = (p / delta) * (g_probe - g_x)
    return np.outer(u, d)


def generate_round_graph(schedule, t: int) -> set[tuple[int, int]]:
    """Edge set at round t: Bernoulli(edge_prob) per pair plus backbone edges."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = schedule.n
    edges: set[tuple[int, int]] = set()
    if schedule.edge_prob > 0.0 and n > 1:
        rng = StreamFactory(schedule.seed).stream(t, PURPOSE_EDGES)
        draws = rng.uniform(size=n * (n - 1) // 2)
        idx = 0
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if draws[idx] < schedule.edge_prob:
                    edges.add((i, j))
                idx += 1
    if schedule.backbone:
        edges |= backbone_edges(n, t)
    return edges


def build_mixing(edges: set[tuple[int, int]], n: int) -> np.ndarray:
    """Uniform-weight mixing matrix: 1/n per edge, diagonal 1 - row sum."""
    W = np.zeros((n, n))
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"edge ({i}, {j}) is not an unordered pair of distinct agents in 1..{n}")
        W[i - 1, j - 1] = W[j - 1, i - 1] = 1.0 / n
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def consensus_step(Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mix primal variables: x_i = sum_j W_ij z_j, stacked as an (n, p) array."""
    if W.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError("mixing matrix dimension mismatch")
    return W @ Z


def assemble_direction(grad_f_est: np.ndarray, jac_g_est: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Primal descent direction: loss-gradient estimate plus Jacobian estimate times dual."""
    if jac_g_est.shape != (grad_f_est.shape[0], q.shape[0]):
        raise ValueError("direction shape mismatch")
    return grad_f_est + jac_g_est @ q


# --- the per-agent round ---

@dataclass(frozen=True)
class RoundRecord:
    """Per-round, per-agent observables; arrays are indexed by agent."""

    t: int
    x: np.ndarray               # (n, p) consensus points
    loss: np.ndarray            # (n,) own loss at own consensus point
    g_clipped: np.ndarray       # (n, m) clipped own constraint values
    direction_norm: np.ndarray  # (n,)
    step_norm: np.ndarray       # (n,)
    dual_norm: np.ndarray       # (n,) norm of the refreshed dual
    A: np.ndarray               # (n, q, p) the round's problem data, as drawn
    theta: np.ndarray           # (n, q)
    B: np.ndarray               # (n, m, p)
    b: np.ndarray               # (n, m)


def _update_agent(i, x_i, t, sched, xi_next, box, inst, streams, variant):
    """Pure per-agent round body; everything it reads is value-derived.

    inst holds agent i's round-t problem data, but only the loss and
    constraint values at x_i and at the probe reach the estimators.
    Returns (z_new, q_new, own_loss, g_clip, direction_norm, step_norm, probe).
    """
    p = box.dim
    u = sample_unit_sphere(streams.stream(i, t, PURPOSE_DIRECTION), p)
    probe = x_i + sched.delta * u
    f_x, f_probe = eval_loss(inst, x_i), eval_loss(inst, probe)
    g_x, g_probe = eval_constraint(inst, x_i), eval_constraint(inst, probe)
    if not (math.isfinite(f_x) and math.isfinite(f_probe)
            and np.isfinite(g_x).all() and np.isfinite(g_probe).all()):
        raise ValueError(f"non-finite feedback at t={t}, agent {i}")

    g_clip = clip_nonneg(g_x)
    q_new = sched.gamma * g_clip

    if variant == "clipped-primal":
        # Ablation: the Jacobian estimator sees the clipped constraint values,
        # so the probe carries no information once both points are feasible.
        g_x, g_probe = g_clip, clip_nonneg(g_probe)
    grad = estimate_loss_grad(f_x, f_probe, u, sched.delta, p)
    jac = estimate_constraint_jacobian(g_x, g_probe, u, sched.delta, p)
    omega = assemble_direction(grad, jac, q_new)

    z_new = project_scaled(box, x_i - sched.alpha * omega, xi_next)
    step = float(np.linalg.norm(z_new - x_i))
    return z_new, q_new, f_x, g_clip, float(np.linalg.norm(omega)), step, probe


def _check_round_invariants(t, sched, xi_next, box, bounds, results, X):
    """Raise InvariantViolation on the first failed per-round assertion."""
    h = box.halfwidth
    half_next = (1.0 - xi_next) * h
    p = box.dim
    for idx, (z_new, q_new, _loss, g_clip, omega_norm, step, probe) in enumerate(results):
        x_i = X[idx]
        if np.any(q_new < 0.0):
            raise InvariantViolation(f"negative dual at t={t}, agent {idx + 1}")
        if np.any(np.abs(z_new) > half_next + MEMBERSHIP_TOL):
            raise InvariantViolation(f"z outside shrunk set at t={t}, agent {idx + 1}")
        if np.any(np.abs(x_i) > h + MEMBERSHIP_TOL) or np.any(np.abs(probe) > h + MEMBERSHIP_TOL):
            raise InvariantViolation(f"query point outside the set at t={t}, agent {idx + 1}")
        if step > sched.alpha * omega_norm + STEP_TOL:
            raise InvariantViolation(f"step bound failed at t={t}, agent {idx + 1}")
        cap = sched.alpha * (p * bounds.G1 + p * bounds.G2 * sched.gamma * float(np.linalg.norm(g_clip)))
        if step > cap + STEP_TOL:
            raise InvariantViolation(f"displacement bound failed at t={t}, agent {idx + 1}")


def run_round(t, Z, schedule: ScheduleParams, graph,
              spec: RegressionProblemSpec, streams: StreamFactory, variant: str = "paper", *,
              box: Box, bounds: ProblemBounds) -> tuple[np.ndarray, RoundRecord]:
    """One synchronous round at index t; returns the next primal state and the record.

    The round's problem data is drawn once, here, and each agent gets its own rows.
    """
    sched = round_params(schedule, t)
    xi_next = round_params(schedule, t + 1).xi
    n = Z.shape[0]
    W = build_mixing(generate_round_graph(graph, t), n)
    X = consensus_step(Z, W)
    A, theta, B, b = materialize_round(spec, t)
    results = [_update_agent(idx + 1, X[idx], t, sched, xi_next, box,
                             ProblemInstanceAt(A[idx], theta[idx], B[idx], b[idx], spec.mu_reg),
                             streams, variant)
               for idx in range(n)]

    _check_round_invariants(t, sched, xi_next, box, bounds, results, X)

    z_new, q_new, loss, g_clip, direction_norm, step_norm, _probe = zip(*results)
    record = RoundRecord(
        t=t,
        x=X,
        loss=np.array(loss),
        g_clipped=np.stack(g_clip),
        direction_norm=np.array(direction_norm),
        step_norm=np.array(step_norm),
        dual_norm=np.array([float(np.linalg.norm(q)) for q in q_new]),
        A=A, theta=theta, B=B, b=b,
    )
    return np.stack(z_new), record
