"""Per-round parameter sequences: stepsize, dual scale, shrinkage, probe radius,
and the rate envelopes each schedule mode promises.

Every mode is scales of one power of t, s_t = t^(-e):

    alpha_t = a s_t,   gamma_t = gamma0 / alpha_t,   xi_t = min(x s_t, 1),

with the probe radius delta_t = r_X xi_t in the theorem modes and d s_t in
custom mode, where it must stay within r_X xi_t so probes stay in the set.

    mode      a            x         e               delta
    theorem1  1            1         c               r_X xi_t
    theorem4  1/mu         1/mu      1               r_X xi_t
    custom    alpha_scale  xi_scale  alpha_exponent  delta_scale s_t

"theorem1" is the convex-case schedule; "theorem4" is the strongly-convex
one, whose cap on xi keeps the shrunk set defined when mu < 1. "custom"
exists for the published benchmark settings, which use a dual scale well
above the compliance bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """A schedule mode and its constants; scales holds the mode's power law
    (a, x, e, d), with d None where delta follows r_X * xi."""

    mode: str
    gamma0: float
    c: float = 0.5
    mu: float | None = None
    r_X: float = 1.0
    overrides: ScheduleOverrides | None = None
    scales: tuple = field(init=False, repr=False, compare=False)

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
        if self.mode == "theorem1":
            scales = (1.0, 1.0, self.c, None)
        elif self.mode == "theorem4":
            scales = (1.0 / self.mu, 1.0 / self.mu, 1.0, None)
        else:
            ov = self.overrides
            scales = (ov.alpha_scale, ov.xi_scale, ov.alpha_exponent, ov.delta_scale)
        object.__setattr__(self, "scales", scales)


@dataclass(frozen=True)
class RoundParams:
    """Resolved parameters for one round; gamma * alpha equals gamma0."""

    alpha: float
    gamma: float
    xi: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.gamma < math.inf
                and 0.0 < self.delta < math.inf):
            raise ValueError(f"alpha, gamma, delta must be positive and finite, got {self}")
        if not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must be in (0, 1]")


def round_params(params: ScheduleParams, t: int) -> RoundParams:
    """The round-t values of the schedule's power law.

    s = 1/t is one exact division where e = 1; any other exponent goes
    through pow.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    a, x, e, d = params.scales
    s = 1.0 / t if e == 1.0 else float(t) ** (-e)
    alpha = a * s
    xi = min(x * s, 1.0)
    delta = params.r_X * xi if d is None else d * s
    if delta > params.r_X * xi:
        raise ValueError("delta exceeds r_X * xi; probes would leave the set")
    return RoundParams(alpha=alpha, gamma=params.gamma0 / alpha, xi=xi, delta=delta)


def rate_envelopes(params: ScheduleParams) -> dict[str, float | str]:
    """Growth of the bounds the mode's theorems promise, by envelope id: a
    power-law exponent of T, or the logarithmic rate as text. Custom mode
    promises none."""
    c = params.c
    if params.mode == "theorem1":
        return {"T1-reg": max(c, 1.0 - c), "T1-ccv": 1.0 - c / 2.0, "T2-ccv": 1.0 - c}
    if params.mode == "theorem4":
        return {"T4-reg": "log(T)", "T4-ccv": "sqrt(T log T)", "T4-ccv-slater": "log(T)"}
    return {}


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
