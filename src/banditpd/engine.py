"""Bulk-synchronous simulation of the distributed bandit primal-dual updates.

One round, per agent: mix neighbours' primal variables into a consensus point,
probe the private loss and constraints at that point and at a sphere-perturbed
probe, refresh the dual multiplier from the clipped constraint values, build
the zeroth-order descent direction, and step onto the shrunk decision set.
The primal state is one (n, p) array Z, one row per agent; round t reads only
Z_t and returns Z_{t+1}, so per-agent updates never see each other's output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, clip_nonneg, project_scaled
from .network import GraphSchedule, build_mixing, generate_round_graph
from .oracle import (
    PURPOSE_DIRECTION,
    PURPOSE_INIT,
    ProblemBounds,
    StreamFactory,
    estimate_constraint_jacobian,
    estimate_loss_grad,
    sample_unit_sphere,
)
from .problems import (
    ProblemInstanceAt,
    RegressionProblemSpec,
    compute_bounds,
    eval_constraint,
    eval_loss,
    materialize_round,
)
from .schedule import ScheduleParams, round_params

VARIANTS = ("paper", "clipped-primal")

MEMBERSHIP_TOL = 1e-9
STEP_TOL = 1e-9

TRACE_ARRAYS = ("x_hist", "loss", "g_clipped", "direction_norm", "step_norm", "dual_norm")


class InvariantViolation(RuntimeError):
    """An algorithm invariant failed at runtime; indicates misconfiguration."""


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


@dataclass
class RunTrace:
    """Everything a metrics pass needs: decisions, diagnostics and the problem
    data each round was drawn with. digest() covers only the TRACE_ARRAYS, the
    trajectory; the problem data is a function of the spec.
    """

    problem: RegressionProblemSpec
    x_hist: np.ndarray          # (rounds, n, p)
    loss: np.ndarray            # (rounds, n)
    g_clipped: np.ndarray       # (rounds, n, m)
    direction_norm: np.ndarray  # (rounds, n)
    step_norm: np.ndarray       # (rounds, n)
    dual_norm: np.ndarray       # (rounds, n)
    A: np.ndarray               # (rounds, n, q, p)
    theta: np.ndarray           # (rounds, n, q)
    B: np.ndarray               # (rounds, n, m, p)
    b: np.ndarray               # (rounds, n, m)

    @property
    def rounds(self) -> int:
        return self.x_hist.shape[0]

    def digest(self) -> str:
        """sha256 of the trajectory arrays, each prefixed by name:dtype:shape."""
        h = hashlib.sha256()
        for name in TRACE_ARRAYS:
            arr = getattr(self, name)
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def init_agents(n, box: Box, xi1: float, init_rule: str = "zeros",
                streams: StreamFactory | None = None) -> np.ndarray:
    """Initial primal state: one row per agent, in the (1 - xi1)-shrunk box."""
    if not (0.0 < xi1 <= 1.0):
        raise ValueError("xi1 must be in (0, 1]")
    if init_rule not in ("zeros", "uniform"):
        raise ValueError(f"unknown init_rule {init_rule!r}")
    half = (1.0 - xi1) * box.halfwidth
    Z = np.zeros((n, box.dim))
    if init_rule == "uniform" and half > 0.0:
        if streams is None:
            raise ValueError("uniform init needs a StreamFactory")
        for i in range(1, n + 1):
            Z[i - 1] = streams.agent_round(i, 0, PURPOSE_INIT).uniform(-half, half, size=box.dim)
    return Z


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


def _update_agent(i, x_i, t, sched, xi_next, box, inst, streams, variant):
    """Pure per-agent round body; everything it reads is value-derived.

    inst holds agent i's round-t problem data, but only the loss and
    constraint values at x_i and at the probe reach the estimators.
    Returns (z_new, q_new, own_loss, g_clip, direction_norm, step_norm, probe).
    """
    p = box.dim
    u = sample_unit_sphere(streams.agent_round(i, t, PURPOSE_DIRECTION), p)
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


def run_round(t, Z, schedule: ScheduleParams, graph: GraphSchedule,
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


def run_horizon(T: int, spec: RegressionProblemSpec, schedule: ScheduleParams,
                graph: GraphSchedule, variant: str = "paper", init_rule: str = "zeros") -> RunTrace:
    """Execute rounds t = 1 .. T-1 and return the full trace.

    Metrics cover the executed decisions only, so the terminal consensus point
    x_{i,T} is never formed. T = 1 yields an empty trace. Every round is
    checked against the invariants, with the displacement cap taken from
    compute_bounds(spec).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, p, q, m = spec.n, spec.p, spec.q_i, spec.m_i
    box = Box(dim=p, halfwidth=spec.halfwidth)
    bounds = compute_bounds(spec)
    streams = StreamFactory(spec.seed)
    Z = init_agents(n, box, round_params(schedule, 1).xi, init_rule, streams)

    # trace field -> (RoundRecord field, per-round shape)
    fields = {
        "x_hist": ("x", (n, p)), "loss": ("loss", (n,)), "g_clipped": ("g_clipped", (n, m)),
        "direction_norm": ("direction_norm", (n,)), "step_norm": ("step_norm", (n,)),
        "dual_norm": ("dual_norm", (n,)), "A": ("A", (n, q, p)), "theta": ("theta", (n, q)),
        "B": ("B", (n, m, p)), "b": ("b", (n, m)),
    }
    hist = {name: np.empty((T - 1, *shape)) for name, (_attr, shape) in fields.items()}

    for t in range(1, T):
        Z, record = run_round(t, Z, schedule, graph, spec, streams, variant,
                              box=box, bounds=bounds)
        for name, (attr, _shape) in fields.items():
            hist[name][t - 1] = getattr(record, attr)

    return RunTrace(problem=spec, **hist)
