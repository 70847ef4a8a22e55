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
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, clip_nonneg, project_scaled
from .network import GraphSchedule, build_mixing, generate_round_graph
from .oracle import (
    PURPOSE_DIRECTION,
    PURPOSE_INIT,
    FeedbackValues,
    ProblemBounds,
    StreamFactory,
    TwoPointSample,
    estimate_constraint_jacobian,
    estimate_loss_grad,
    sample_unit_sphere,
)
from .problems import RegressionAdversary, RegressionProblemSpec
from .schedule import ScheduleParams, round_params

VARIANTS = ("paper", "clipped-primal")

MEMBERSHIP_TOL = 1e-9
STEP_TOL = 1e-9

TRACE_ARRAYS = ("x_hist", "loss", "g_clipped", "direction_norm", "step_norm", "dual_norm")

INVARIANT_NAMES = (
    "dual_nonneg",
    "shrunk_membership",
    "query_membership",
    "step_bound",
    "displacement_bound",
)


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


@dataclass
class RunConfig:
    problem: RegressionProblemSpec
    schedule: ScheduleParams
    graph: GraphSchedule
    variant: str = "paper"
    init_rule: str = "zeros"
    check_invariants: str = "strict"  # or "off"
    bounds: ProblemBounds | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.init_rule not in ("zeros", "uniform"):
            raise ValueError(f"unknown init_rule {self.init_rule!r}")
        if self.check_invariants not in ("strict", "off"):
            raise ValueError("check_invariants must be 'strict' or 'off'")


@dataclass
class RunTrace:
    """Everything a metrics pass needs: decisions, diagnostics, and identity."""

    problem: RegressionProblemSpec
    schedule: ScheduleParams
    variant: str
    horizon: int
    x_hist: np.ndarray          # (rounds, n, p)
    loss: np.ndarray            # (rounds, n)
    g_clipped: np.ndarray       # (rounds, n, m)
    direction_norm: np.ndarray  # (rounds, n)
    step_norm: np.ndarray       # (rounds, n)
    dual_norm: np.ndarray       # (rounds, n)
    invariant_counters: dict[str, int] = field(default_factory=dict)

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

    def fingerprint(self) -> str:
        """Stable hash of the run identity (problem, schedule, variant, horizon)."""
        spec = self.problem
        sched = self.schedule
        payload = {
            "problem": [spec.n, spec.p, spec.q_i, spec.m_i, spec.halfwidth, spec.b_offset, spec.seed, spec.mu_reg],
            "schedule": [sched.mode, sched.gamma0, sched.c, sched.mu, sched.r_X,
                         list(vars(sched.overrides).values()) if sched.overrides else None],
            "variant": self.variant,
            "horizon": self.horizon,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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


def _update_agent(i, x_i, t, sched, xi_next, box, adversary, streams, variant):
    """Pure per-agent round body; everything it reads is value-derived.

    Returns (z_new, q_new, own_loss, g_clip, direction_norm, step_norm, probe).
    """
    p = box.dim
    u = sample_unit_sphere(streams.agent_round(i, t, PURPOSE_DIRECTION), p)
    sample = TwoPointSample(direction=u, radius=sched.delta)
    probe = x_i + sched.delta * u
    fb = adversary.feedback(i, t, x_i, probe)

    g_clip = clip_nonneg(fb.g_at_x)
    q_new = sched.gamma * g_clip

    if variant == "clipped-primal":
        # Ablation: the Jacobian estimator sees the clipped constraint values,
        # so the probe carries no information once both points are feasible.
        fb_for_jac = FeedbackValues(
            f_at_x=fb.f_at_x,
            f_at_probe=fb.f_at_probe,
            g_at_x=g_clip,
            g_at_probe=clip_nonneg(fb.g_at_probe),
        )
    else:
        fb_for_jac = fb
    grad = estimate_loss_grad(fb, sample, p)
    jac = estimate_constraint_jacobian(fb_for_jac, sample, p)
    omega = assemble_direction(grad, jac, q_new)

    z_new = project_scaled(box, x_i - sched.alpha * omega, xi_next)
    step = float(np.linalg.norm(z_new - x_i))
    return z_new, q_new, fb.f_at_x, g_clip, float(np.linalg.norm(omega)), step, probe


def _check_round_invariants(t, sched, xi_next, box, bounds, results, X, counters):
    """Raise InvariantViolation on the first failed per-round assertion."""
    h = box.halfwidth
    half_next = (1.0 - xi_next) * h
    p = box.dim
    for idx, (z_new, q_new, _loss, g_clip, omega_norm, step, probe) in enumerate(results):
        x_i = X[idx]
        if np.any(q_new < 0.0):
            counters["dual_nonneg"] += 1
            raise InvariantViolation(f"negative dual at t={t}, agent {idx + 1}")
        if np.any(np.abs(z_new) > half_next + MEMBERSHIP_TOL):
            counters["shrunk_membership"] += 1
            raise InvariantViolation(f"z outside shrunk set at t={t}, agent {idx + 1}")
        if np.any(np.abs(x_i) > h + MEMBERSHIP_TOL) or np.any(np.abs(probe) > h + MEMBERSHIP_TOL):
            counters["query_membership"] += 1
            raise InvariantViolation(f"query point outside the set at t={t}, agent {idx + 1}")
        if step > sched.alpha * omega_norm + STEP_TOL:
            counters["step_bound"] += 1
            raise InvariantViolation(f"step bound failed at t={t}, agent {idx + 1}")
        if bounds is not None:
            cap = sched.alpha * (p * bounds.G1 + p * bounds.G2 * sched.gamma * float(np.linalg.norm(g_clip)))
            if step > cap + STEP_TOL:
                counters["displacement_bound"] += 1
                raise InvariantViolation(f"displacement bound failed at t={t}, agent {idx + 1}")


def run_round(t, Z, schedule: ScheduleParams, graph: GraphSchedule, adversary,
              streams: StreamFactory, variant: str = "paper", *, box: Box,
              check_invariants: str = "strict", bounds: ProblemBounds | None = None,
              counters: dict[str, int] | None = None) -> tuple[np.ndarray, RoundRecord]:
    """One synchronous round at index t; returns the next primal state and the record."""
    sched = round_params(schedule, t)
    xi_next = round_params(schedule, t + 1).xi
    n = Z.shape[0]
    W = build_mixing(generate_round_graph(graph, t), n).entries
    X = consensus_step(Z, W)
    results = [_update_agent(idx + 1, X[idx], t, sched, xi_next, box, adversary, streams, variant)
               for idx in range(n)]

    if check_invariants == "strict":
        if counters is None:
            counters = {name: 0 for name in INVARIANT_NAMES}
        _check_round_invariants(t, sched, xi_next, box, bounds, results, X, counters)

    z_new, q_new, loss, g_clip, direction_norm, step_norm, _probe = zip(*results)
    record = RoundRecord(
        t=t,
        x=X,
        loss=np.array(loss),
        g_clipped=np.stack(g_clip),
        direction_norm=np.array(direction_norm),
        step_norm=np.array(step_norm),
        dual_norm=np.array([float(np.linalg.norm(q)) for q in q_new]),
    )
    return np.stack(z_new), record


def run_horizon(T: int, config: RunConfig) -> RunTrace:
    """Execute rounds t = 1 .. T-1 and return the full trace.

    Metrics cover the executed decisions only, so the terminal consensus point
    x_{i,T} is never formed. T = 1 yields an empty trace.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    spec = config.problem
    box = Box(dim=spec.p, halfwidth=spec.halfwidth)
    streams = StreamFactory(spec.seed)
    adversary = RegressionAdversary(spec)
    xi1 = round_params(config.schedule, 1).xi
    Z = init_agents(spec.n, box, xi1, config.init_rule, streams)

    rounds = T - 1
    x_hist = np.empty((rounds, spec.n, spec.p))
    loss = np.empty((rounds, spec.n))
    g_clipped = np.empty((rounds, spec.n, spec.m_i))
    direction_norm = np.empty((rounds, spec.n))
    step_norm = np.empty((rounds, spec.n))
    dual_norm = np.empty((rounds, spec.n))
    counters = {name: 0 for name in INVARIANT_NAMES}

    for t in range(1, T):
        Z, record = run_round(
            t, Z, config.schedule, config.graph, adversary, streams,
            config.variant, box=box, check_invariants=config.check_invariants,
            bounds=config.bounds, counters=counters,
        )
        k = t - 1
        x_hist[k] = record.x
        loss[k] = record.loss
        g_clipped[k] = record.g_clipped
        direction_norm[k] = record.direction_norm
        step_norm[k] = record.step_norm
        dual_norm[k] = record.dual_norm

    return RunTrace(
        problem=spec,
        schedule=config.schedule,
        variant=config.variant,
        horizon=T,
        x_hist=x_hist,
        loss=loss,
        g_clipped=g_clipped,
        direction_norm=direction_norm,
        step_norm=step_norm,
        dual_norm=dual_norm,
        invariant_counters=counters,
    )
