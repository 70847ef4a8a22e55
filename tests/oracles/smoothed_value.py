"""Reference for criterion 02's smoothed-value sandwich: the delta-ball
average of a function, estimated by Monte Carlo over uniform ball draws.

The package itself never smooths a function; it only samples the unit sphere
(banditpd.oracle.sample_unit_sphere), which the ball draw here builds on.
"""

from __future__ import annotations

import numpy as np

from banditpd.oracle import sample_unit_sphere


def sample_unit_ball(rng: np.random.Generator, p: int) -> np.ndarray:
    """Uniform draw from the unit ball: sphere draw scaled by U^(1/p)."""
    u = sample_unit_sphere(rng, p)
    return u * rng.uniform() ** (1.0 / p)


def smoothed_value_mc(f, x, delta: float, n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo average of f over the delta-ball around x.

    With delta = 0 the ball degenerates to {x} and the exact value f(x) is
    returned without consuming randomness.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if delta == 0.0:
        return float(f(x))
    p = x.size
    total = 0.0
    for _ in range(n_samples):
        total += float(f(x + delta * sample_unit_ball(rng, p)))
    return total / n_samples
