"""Decision-set geometry: the box decision set, projections, and stacked products.

Everything here is a pure function on float64 arrays. The decision set is an
axis-aligned box with per-coordinate half-width h, so projections are exact
clamps. Halfspace, project_halfspace and project_intersection (Dykstra) are on
no run's path; they stay because perfbench/child.py:TRACED looks up
metrics.project_intersection by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [-h, h]^p."""

    dim: int
    halfwidth: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.halfwidth > 0 and np.isfinite(self.halfwidth)):
            raise ValueError("halfwidth must be positive and finite")

    def _check_dim(self, v: np.ndarray):
        if v.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: set is {self.dim}-D, point has shape {v.shape}")


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        norm = as_vector(self.normal)
        if not np.any(norm != 0.0):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", norm)
        object.__setattr__(self, "offset", float(self.offset))

    def violation(self, x) -> float:
        return float(self.normal @ as_vector(x) - self.offset)


def matvec(M, v) -> np.ndarray:
    """M @ v over the last axes, for any leading (agent) axes: (..., k, p) x (..., p) -> (..., k).

    A dot product is matvec(a[..., None, :], b)[..., 0]. np.matmul on
    C-contiguous operands makes the same BLAS call for each leading index as a
    lone M[i] @ v[i], so a row's bits do not depend on how many rows are
    stacked; a strided operand would fall back to numpy's own loop.
    """
    return np.matmul(np.ascontiguousarray(M), np.ascontiguousarray(v)[..., None])[..., 0]


def project(box: Box, x) -> np.ndarray:
    """Nearest point of the box: componentwise clamp to [-h, h]."""
    v = as_vector(x)
    box._check_dim(v)
    return np.clip(v, -box.halfwidth, box.halfwidth)


def project_scaled(box: Box, x, shrink: float) -> np.ndarray:
    """Project onto the box scaled by (1 - shrink); shrink = 1 collapses to the origin.

    x is one point or a stack of points (one row per agent); each is clamped.
    """
    if not (0.0 <= shrink <= 1.0):
        raise ValueError(f"shrink must be in [0, 1], got {shrink}")
    v = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    box._check_dim(v)
    half = (1.0 - shrink) * box.halfwidth
    return np.clip(v, -half, half)


def project_halfspace(x, hs: Halfspace) -> np.ndarray:
    """Orthogonal projection onto {<a, x> <= beta}: a no-op for feasible points."""
    v = as_vector(x)
    excess = hs.normal @ v - hs.offset
    if excess <= 0.0:
        return v
    return v - (excess / (hs.normal @ hs.normal)) * hs.normal


def project_intersection(
    x,
    box: Box,
    halfspaces: list[Halfspace],
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> tuple[np.ndarray, bool]:
    """Project onto box intersected with halfspaces by Dykstra's alternating method.

    Cycles through the box and every halfspace, carrying one correction term
    per set, until the sweep-to-sweep change drops to tol. Returns the final
    iterate and a convergence flag; on the flag being False the iterate is the
    best found within max_iter sweeps. The caller guarantees the intersection
    is nonempty.
    """
    v = as_vector(x)
    box._check_dim(v)
    if not halfspaces:
        return project(box, v), True
    sets = [None] + list(halfspaces)  # None stands for the box
    increments = [np.zeros_like(v) for _ in sets]
    current = v.copy()
    for _ in range(max_iter):
        previous = current.copy()
        for k, hs in enumerate(sets):
            shifted = current + increments[k]
            projected = project(box, shifted) if hs is None else project_halfspace(shifted, hs)
            increments[k] = shifted - projected
            current = projected
        if float(np.linalg.norm(current - previous)) <= tol:
            return current, True
    return current, False
