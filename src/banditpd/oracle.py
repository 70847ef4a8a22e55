"""Two-point bandit feedback and zeroth-order estimators.

The learner never sees problem parameters, only function values at its
consensus point x and at the probe x + delta * u. The estimators turn those
two values into a gradient estimate (losses) or a rank-1 Jacobian estimate
(constraints). The RNG contract lives here too: every random draw in a run
comes from a stream derived by a counter-based split of the master seed on
(agent, round, purpose), so results never depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Purpose tags for stream derivation. Values are stable identifiers; changing
# them changes every sampled trajectory.
PURPOSE_DIRECTION = 0
PURPOSE_PROBLEM = 1
PURPOSE_EDGES = 2
PURPOSE_INIT = 3


class StreamFactory:
    """Derives independent numpy Generators from (master seed, integer key)."""

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        self.master_seed = int(master_seed)

    def stream(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(int(k) for k in key))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class ProblemBounds:
    """Uniform loss bound F and Lipschitz bounds G1 (loss), G2 (constraints)."""

    F: float
    G1: float
    G2: float

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.F, self.G1, self.G2)):
            raise ValueError("bounds must be positive and finite")


def sample_unit_sphere(rng: np.random.Generator, p: int) -> np.ndarray:
    """Uniform draw from the unit sphere in R^p via Gaussian normalization."""
    if p < 1:
        raise ValueError("p must be >= 1")
    while True:
        g = rng.standard_normal(p)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:  # the all-zeros draw has measure zero, resample
            return g / norm


def estimate_loss_grad(f_x, f_probe, u: np.ndarray, delta: float, p: int) -> np.ndarray:
    """Two-point gradient estimate (p/delta) * (f(x + delta u) - f(x)) * u.

    With a leading agent axis (f values (n,), u (n, p)) each row is one
    agent's estimate.
    """
    if not delta > 0:
        raise ValueError("probe radius must be positive")
    scale = (p / delta) * (np.asarray(f_probe) - f_x)
    return scale[..., None] * u


def estimate_constraint_jacobian(g_x: np.ndarray, g_probe: np.ndarray, u: np.ndarray,
                                 delta: float, p: int) -> np.ndarray:
    """Rank-1 Jacobian estimate outer(u, d) with d = (p/delta) * (g(x + delta u) - g(x)).

    Column k equals the loss-gradient estimator applied to constraint
    component k, so the result has shape (p, m); with a leading agent axis
    (g values (n, m), u (n, p)) it is (n, p, m).
    """
    if not delta > 0:
        raise ValueError("probe radius must be positive")
    d = (p / delta) * (g_probe - g_x)
    return u[..., :, None] * d[..., None, :]
