"""Per-round parameter sequences: stepsize, dual scale, shrinkage, probe radius.

Three modes are supported. "theorem1" is the convex-case schedule
alpha_t = t^-c with gamma_t = gamma0 / alpha_t, xi_t = alpha_t and
delta_t = r_X * alpha_t. "theorem4" is the strongly-convex schedule
alpha_t = 1/(mu t), with xi capped at 1 so the shrunk set stays defined when
mu < 1. "custom" takes explicit scale/exponent overrides and exists for the
published benchmark settings, which use a dual scale well above the
compliance bound.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("theorem1", "theorem4", "custom")


@dataclass(frozen=True)
class ScheduleOverrides:
    """Explicit sequences for custom mode: value_t = scale * t^(-exponent)."""

    alpha_scale: float = 1.0
    alpha_exponent: float = 1.0
    xi_scale: float = 1.0
    delta_scale: float = 0.01


@dataclass(frozen=True)
class ScheduleParams:
    mode: str
    gamma0: float
    c: float = 0.5
    mu: float | None = None
    r_X: float = 1.0
    overrides: ScheduleOverrides | None = None
    theorem_compliant: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not self.gamma0 > 0:
            raise ValueError("gamma0 must be positive")
        if self.mode == "theorem1" and not (0.0 < self.c < 1.0):
            raise ValueError("theorem1 mode requires c in (0, 1)")
        if self.mode == "theorem4" and not (self.mu is not None and self.mu > 0):
            raise ValueError("theorem4 mode requires mu > 0")
        if self.mode == "custom" and self.overrides is None:
            raise ValueError("custom mode requires overrides")
        if not self.r_X > 0:
            raise ValueError("r_X must be positive")


@dataclass(frozen=True)
class RoundParams:
    """Resolved parameters for one round; gamma * alpha equals gamma0."""

    alpha: float
    gamma: float
    xi: float
    delta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0 and self.delta > 0):
            raise ValueError("alpha, gamma, delta must be positive")
        if not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must be in (0, 1]")


def theorem1_round(params: ScheduleParams, t: int) -> RoundParams:
    """Convex-case schedule (t^-c, gamma0 t^c, t^-c, r_X t^-c)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if params.mode != "theorem1":
        raise ValueError("params.mode must be 'theorem1'")
    alpha = float(t) ** (-params.c)
    return RoundParams(
        alpha=alpha,
        gamma=params.gamma0 / alpha,
        xi=alpha,
        delta=params.r_X * alpha,
    )


def theorem4_round(params: ScheduleParams, t: int) -> RoundParams:
    """Strongly-convex schedule alpha_t = 1/(mu t); xi = min(alpha, 1).

    The cap keeps the shrink factor inside (0, 1] when mu < 1 would give
    alpha_1 > 1; delta follows the capped xi so probes stay inside the set.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if params.mode != "theorem4":
        raise ValueError("params.mode must be 'theorem4'")
    alpha = 1.0 / (params.mu * t)
    xi = min(alpha, 1.0)
    return RoundParams(
        alpha=alpha,
        gamma=params.gamma0 / alpha,
        xi=xi,
        delta=params.r_X * xi,
    )


def custom_round(params: ScheduleParams, t: int) -> RoundParams:
    if t < 1:
        raise ValueError("t must be >= 1")
    ov = params.overrides
    alpha = ov.alpha_scale * float(t) ** (-ov.alpha_exponent)
    xi = min(ov.xi_scale * float(t) ** (-ov.alpha_exponent), 1.0)
    delta = ov.delta_scale * float(t) ** (-ov.alpha_exponent)
    if delta > params.r_X * xi:
        raise ValueError("custom overrides violate delta <= r_X * xi; probes would leave the set")
    return RoundParams(alpha=alpha, gamma=params.gamma0 / alpha, xi=xi, delta=delta)


def round_params(params: ScheduleParams, t: int) -> RoundParams:
    """Dispatch on mode."""
    if params.mode == "theorem1":
        return theorem1_round(params, t)
    if params.mode == "theorem4":
        return theorem4_round(params, t)
    return custom_round(params, t)


def default_gamma0(p: int, G2: float) -> float:
    """Largest compliant dual scale, 1 / (4 (p^2 + 1) G2^2)."""
    if G2 <= 0:
        raise ValueError("G2 must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    return 1.0 / (4.0 * (p**2 + 1) * G2**2)


def check_gamma0_compliance(params: ScheduleParams, p: int, G2: float) -> bool:
    """True iff gamma0 respects the compliance bound for dimension p."""
    return params.gamma0 <= default_gamma0(p, G2) * (1 + 1e-12)
