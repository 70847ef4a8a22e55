"""Bulk-synchronous simulation of the distributed bandit primal-dual updates.

One round: mix neighbours' primal variables into consensus points, probe each
agent's private loss and constraints at its point and at a sphere-perturbed
probe, refresh the duals from the clipped constraint values, build the
zeroth-order descent directions, and step onto the shrunk decision set. Every
agent runs the same update, so a round is one pass over stacked arrays, one
row per agent: the primal state Z is (n, p) and the round's problem data
(n, q_i, p) and (n, m_i, p). Only the direction draws go agent by agent, each
from its own stream. Round t reads only Z_t and returns Z_{t+1}. Products go
through geometry.matvec, so a row's bits do not depend on n.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .geometry import Box, matvec, project_scaled
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

# What each invariant check reports, in the order the checks run.
INVARIANTS = ("negative dual", "z outside shrunk set", "query point outside the set",
              "step bound failed", "displacement bound failed")


class InvariantViolation(RuntimeError):
    """An algorithm invariant failed at runtime; indicates misconfiguration."""


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
            Z[i - 1] = streams.stream(i, 0, PURPOSE_INIT).uniform(-half, half, size=box.dim)
    return Z


def _norms(V: np.ndarray) -> np.ndarray:
    """Row norms as np.linalg.norm takes them: sqrt of each row's dot with itself.

    A finite row whose squares overflow takes max|v| * |v / max|v|| instead,
    so a recorded norm or a bound built from one is inf only when the norm is.
    """
    norms = np.sqrt(matvec(V[:, None, :], V)[:, 0])
    over = np.isinf(norms) & np.isfinite(V).all(axis=1)
    if over.any():
        top = np.abs(V[over]).max(axis=1)
        norms[over] = top * _norms(V[over] / top[:, None])
    return norms


def run_round(t, Z, schedule: ScheduleParams, graph: GraphSchedule,
              spec: RegressionProblemSpec, streams: StreamFactory, variant: str = "paper", *,
              box: Box, bounds: ProblemBounds) -> tuple[np.ndarray, dict]:
    """One synchronous round at index t; returns Z_{t+1} and the round's trace rows.

    rows maps each RunTrace field to this round's (n, ...) entry, row i for agent i.
    """
    sched = round_params(schedule, t)
    xi_next = round_params(schedule, t + 1).xi
    n, p = spec.n, spec.p
    X = build_mixing(generate_round_graph(graph, t), n) @ Z
    A, theta, B, b = materialize_round(spec, t)
    data = ProblemInstanceAt(A, theta, B, b, spec.mu_reg)
    U = np.stack([sample_unit_sphere(streams.stream(i, t, PURPOSE_DIRECTION), p)
                  for i in range(1, n + 1)])
    probe = X + sched.delta * U
    # Past the draws, an overflow either stops the run at one of the two finite
    # checks, with its own message, or leaves inf in a recorded norm; numpy's
    # floating-point notices add nothing to either.
    with np.errstate(over="ignore", invalid="ignore"):
        f_x, f_probe = eval_loss(data, X), eval_loss(data, probe)
        g_x, g_probe = eval_constraint(data, X), eval_constraint(data, probe)
        finite = (np.isfinite(f_x) & np.isfinite(f_probe)
                  & np.isfinite(g_x).all(axis=1) & np.isfinite(g_probe).all(axis=1))
        if not finite.all():
            raise ValueError(f"non-finite feedback at t={t}, agent {np.argmin(finite) + 1}")

        g_clip = np.maximum(g_x, 0.0)
        q_new = sched.gamma * g_clip
        if variant == "clipped-primal":
            # Ablation: the Jacobian estimator sees the clipped constraint values,
            # so the probe carries no information once both points are feasible.
            g_x, g_probe = g_clip, np.maximum(g_probe, 0.0)
        omega = (estimate_loss_grad(f_x, f_probe, U, sched.delta, p)
                 + matvec(estimate_constraint_jacobian(g_x, g_probe, U, sched.delta, p), q_new))
        target = X - sched.alpha * omega
        finite = np.isfinite(target).all(axis=1)
        if not finite.all():
            raise InvariantViolation(f"non-finite step at t={t}, agent {np.argmin(finite) + 1}")
        Z_next = project_scaled(box, target, xi_next)
        step, omega_norm = _norms(Z_next - X), _norms(omega)

        h = box.halfwidth
        cap = sched.alpha * (p * bounds.G1 + p * bounds.G2 * sched.gamma * _norms(g_clip))
        failed = np.column_stack([  # one column per INVARIANTS entry, in its order
            (q_new < 0.0).any(axis=1),
            (np.abs(Z_next) > (1.0 - xi_next) * h + MEMBERSHIP_TOL).any(axis=1),
            (np.abs(X) > h + MEMBERSHIP_TOL).any(axis=1) | (np.abs(probe) > h + MEMBERSHIP_TOL).any(axis=1),
            step > sched.alpha * omega_norm + STEP_TOL,
            step > cap + STEP_TOL,
        ])
        if failed.any():
            agent, check = np.argwhere(failed)[0]
            raise InvariantViolation(f"{INVARIANTS[check]} at t={t}, agent {agent + 1}")

        rows = {"x_hist": X, "loss": f_x, "g_clipped": g_clip, "direction_norm": omega_norm,
                "step_norm": step, "dual_norm": _norms(q_new), "A": A, "theta": theta, "B": B, "b": b}
        return Z_next, rows


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

    per_round = {"x_hist": (n, p), "loss": (n,), "g_clipped": (n, m), "direction_norm": (n,),
                 "step_norm": (n,), "dual_norm": (n,), "A": (n, q, p), "theta": (n, q),
                 "B": (n, m, p), "b": (n, m)}
    hist = {name: np.empty((T - 1, *shape)) for name, shape in per_round.items()}

    for t in range(1, T):
        Z, rows = run_round(t, Z, schedule, graph, spec, streams, variant,
                            box=box, bounds=bounds)
        for name, row in rows.items():
            hist[name][t - 1] = row

    return RunTrace(problem=spec, **hist)
