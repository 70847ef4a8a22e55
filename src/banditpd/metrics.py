"""Network regret, cumulative constraint violation, the offline comparator,
rate-envelope exponents, and log-log slope fitting.

The expensive part is a single pass over the trace that reads each round's
recorded problem data and evaluates every agent's loss and constraints at
every agent's consensus point (the network metrics are defined that way). The
pass also forms the per-round quadratic coefficients of the averaged loss and
views the pooled constraint halfspaces, which is exactly what the offline
comparator needs, so it runs once and everything downstream reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .geometry import Box, Halfspace, project_intersection
from .problems import RegressionProblemSpec

ENVELOPE_IDS = (
    "T1-reg", "T1-ccv", "T2-ccv",
    "T4-reg", "T4-ccv", "T4-ccv-slater",
)

# Comparator internals: Dykstra tolerance and sweep cap per projection, the
# refinement cap of each constraint-generation loop, and the slack beyond
# which a working row is retired.
PROJ_TOL = 1e-12
PROJ_MAX_ITER = 200_000
MAX_REFINEMENTS = 128
DROP_SLACK = 1e-3


@dataclass(frozen=True)
class MetricSeries:
    """A metric sampled at increasing horizons."""

    horizons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.horizons, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if h.shape != v.shape or h.ndim != 1:
            raise ValueError("horizons and values must be 1-D and equal length")
        if h.size and (h[0] < 1 or np.any(np.diff(h) <= 0)):
            raise ValueError("horizons must be strictly increasing and >= 1")
        object.__setattr__(self, "horizons", h)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.horizons.size


@dataclass
class ComparatorResult:
    x_star: np.ndarray
    objective: float
    converged: bool
    max_violation: float


@dataclass
class ComparatorOptions:
    tol: float = 1e-6
    max_iter: int = 100_000


@dataclass
class TraceEvaluation:
    """Per-round quantities from the pass over a trace.

    mean_loss_inc[k] is (1/n) sum_i f_t(x_{i,t}) for t = k+1, where f_t
    averages all agents' losses; ccv_inc[k] is the mean over i of the stacked
    clipped-constraint norm at x_{i,t}. quad_* hold the coefficients of
    f_t(x) = x'Px/2 - r'x + c, and pool_* every round's constraint halfspaces
    (views of the trace's B and b).
    """

    problem: RegressionProblemSpec
    rounds: int
    mean_loss_inc: np.ndarray   # (rounds,)
    ccv_inc: np.ndarray         # (rounds,)
    quad_P: np.ndarray          # (rounds, p, p)
    quad_r: np.ndarray          # (rounds, p)
    quad_c: np.ndarray          # (rounds,)
    pool_normals: np.ndarray    # (rounds * n * m, p)
    pool_offsets: np.ndarray    # (rounds * n * m,)


def evaluate_trace(trace) -> TraceEvaluation:
    spec = trace.problem
    n, p = spec.n, spec.p
    rounds = trace.rounds
    mean_loss_inc = np.empty(rounds)
    ccv_inc = np.empty(rounds)
    quad_P = np.empty((rounds, p, p))
    quad_r = np.empty((rounds, p))
    quad_c = np.empty(rounds)
    eye = np.eye(p)

    for k in range(rounds):
        A, theta, B, b = trace.A[k], trace.theta[k], trace.B[k], trace.b[k]
        X = trace.x_hist[k]                                   # (n, p) points
        resid = np.einsum("jqp,ip->jiq", A, X) - theta[:, None, :]
        loss = 0.5 * np.einsum("jiq,jiq->ji", resid, resid)   # f_{j,t}(x_i)
        if spec.mu_reg:
            loss += 0.5 * spec.mu_reg * np.einsum("ip,ip->i", X, X)[None, :]
        mean_loss_inc[k] = loss.mean()

        slack = np.einsum("jmp,ip->jim", B, X) - b[:, None, :]
        np.clip(slack, 0.0, None, out=slack)
        ccv_inc[k] = np.sqrt(np.einsum("jim,jim->i", slack, slack)).mean()

        quad_P[k] = np.einsum("jqa,jqb->ab", A, A) / n
        if spec.mu_reg:
            quad_P[k] += spec.mu_reg * eye
        quad_r[k] = np.einsum("jqp,jq->p", A, theta) / n
        quad_c[k] = 0.5 * float(np.einsum("jq,jq->", theta, theta)) / n

    return TraceEvaluation(
        problem=spec, rounds=rounds, mean_loss_inc=mean_loss_inc,
        ccv_inc=ccv_inc, quad_P=quad_P, quad_r=quad_r, quad_c=quad_c,
        pool_normals=trace.B.reshape(-1, p), pool_offsets=trace.b.reshape(-1),
    )


def _require_nonempty(ev: TraceEvaluation) -> None:
    if ev.rounds < 1:
        raise ValueError("trace is empty; nothing to evaluate")


def network_ccv(ev: TraceEvaluation) -> MetricSeries:
    """Mean over agents of the running sum of stacked clipped-constraint norms."""
    _require_nonempty(ev)
    return MetricSeries(np.arange(1, ev.rounds + 1), np.cumsum(ev.ccv_inc))


def cumulative_loss(ev: TraceEvaluation) -> MetricSeries:
    """Running sum of (1/n) sum_i f_t(x_{i,t})."""
    _require_nonempty(ev)
    return MetricSeries(np.arange(1, ev.rounds + 1), np.cumsum(ev.mean_loss_inc))


def comparator_loss_series(ev: TraceEvaluation, x_star: np.ndarray) -> np.ndarray:
    """Per-round averaged loss at a fixed point: f_t(x*) for every round."""
    x = np.asarray(x_star, dtype=np.float64)
    return (0.5 * np.einsum("tab,a,b->t", ev.quad_P, x, x)
            - ev.quad_r @ x + ev.quad_c)


def network_regret(ev: TraceEvaluation, comparator: ComparatorResult) -> MetricSeries:
    """Running sum of the averaged loss gap to the fixed comparator point."""
    _require_nonempty(ev)
    if not comparator.converged:
        raise ValueError("comparator did not converge; regret undefined")
    star = comparator_loss_series(ev, comparator.x_star)
    return MetricSeries(np.arange(1, ev.rounds + 1), np.cumsum(ev.mean_loss_inc - star))


def _least_distance(G, h):
    """Smallest-norm y satisfying G @ y >= h, via the reduction to NNLS.

    Stacks E = [G', h'] against the last unit vector and solves the
    nonnegative least-squares problem; a zero residual certifies that the
    halfspaces have empty intersection (returns None), otherwise y recovers
    from the residual. NNLS pivoting stays stable when far more rows than
    dimensions crowd the solution, which is where naive active-set loops
    stall or cycle. Rows are normalized first so pivot tolerances see
    comparable column norms.
    """
    dim = G.shape[1]
    scale = np.linalg.norm(G, axis=1)
    live = scale > 0.0
    if np.any(h[~live] > 0.0):
        return None  # a zero row demands a positive offset: empty
    G = G[live] / scale[live, None]
    h = h[live] / scale[live]
    if G.shape[0] == 0:
        return np.zeros(dim)
    E = np.vstack([G.T, h[None, :]])
    f = np.zeros(dim + 1)
    f[-1] = 1.0
    u, _ = nnls(E, f)
    resid = E @ u - f
    if abs(float(resid[-1])) < 1e-14:
        return None
    return -resid[:dim] / resid[-1]


def _solve_working_set(P, r, normals, offsets, working):
    """Exact minimum of x'Px/2 - r'x subject to the working rows alone.

    A Cholesky factor of P turns the subproblem into a least-distance
    problem centered on the unconstrained minimizer. The y coordinates are
    scaled so the answer has norm near one: the recovery in _least_distance
    divides by a residual of size 1/(1 + |y*|^2), so an unscaled far-away
    solution loses exactly the digits the certificate needs. The scale uses
    the origin as anchor, a strictly feasible point for every generated
    problem. Requires P positive definite; returns None when factorization
    fails or the working rows are numerically infeasible.
    """
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    x_free = np.linalg.solve(P, r)
    if not working:
        return x_free
    A = normals[working]
    L_inv_t = np.linalg.inv(L).T
    sigma = 1.0 + float(np.linalg.norm(L.T @ x_free))
    y = _least_distance(-(A @ L_inv_t) * sigma, A @ x_free - offsets[working])
    if y is None:
        return None
    return L_inv_t @ (sigma * y) + x_free


def minimize_quadratic_over_polytope(P, r, const, box: Box, normals, offsets,
                                     opts: ComparatorOptions | None = None) -> ComparatorResult:
    """Minimize x'Px/2 - r'x + const over box ∩ {normals @ x <= offsets}.

    Projected gradient descent with constraint generation. Descent iterates
    project (via project_intersection) onto the box plus a small working set
    of halfspaces; after each descent the candidate is checked against the
    full pool, the worst violated row joins the working set, and rows slack
    by a wide margin leave it. The descent stops when the full pool is
    satisfied to tol and the gradient-mapping norm, measured relative to the
    gradient scale (1 + |grad|), is at most tol.

    Alternating projections converge too slowly to certify when the binding
    rows are nearly parallel, so a second constraint-generation loop then
    solves the working-set subproblem exactly (least-distance via NNLS). An
    exact solution of a row subset that satisfies the whole pool is the
    global optimum, so that path certifies convergence on its own.
    """
    opts = opts or ComparatorOptions()
    P = np.asarray(P, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, box.dim)
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1)
    if normals.shape[0] != offsets.shape[0]:
        raise ValueError("normals and offsets disagree on row count")

    lam_max = float(np.linalg.eigvalsh(P)[-1]) if P.size else 0.0
    eta = 1.0 / lam_max if lam_max > 0 else 1.0

    def descend(x, active):
        sets = [Halfspace(normals[j], float(offsets[j])) for j in active]
        gm, proj_ok = math.inf, True
        for _it in range(opts.max_iter):
            grad = P @ x - r
            target = x - eta * grad
            x_next, proj_ok = project_intersection(
                target, box, sets, tol=PROJ_TOL, max_iter=PROJ_MAX_ITER)
            moved = float(np.linalg.norm(x_next - x))
            gm = moved / (eta * (1.0 + float(np.linalg.norm(grad))))
            x = x_next
            if proj_ok and gm <= opts.tol:
                break
            if moved <= 1e-16 * (1.0 + float(np.linalg.norm(x))):
                break  # stalled at float resolution
        return x, gm, proj_ok

    active: list[int] = []
    x = np.zeros(box.dim)
    gm = math.inf
    proj_ok = True
    for _refinement in range(MAX_REFINEMENTS):
        x, gm, proj_ok = descend(x, active)
        if normals.shape[0] == 0:
            break
        violation = normals @ x - offsets
        worst_idx = int(np.argmax(violation))
        if violation[worst_idx] <= opts.tol:
            break
        # Retire rows that are now slack by a wide margin; the worst row of a
        # later refinement re-enters if it ever binds again.
        active = [j for j in active if violation[j] > -DROP_SLACK]
        if worst_idx in active:
            break  # projection cannot enforce it any further
        active.append(worst_idx)

    # Exact phase: the box faces join the pool as ordinary rows, and the
    # working set grows from whatever the descent phase found binding.
    eye = np.eye(box.dim)
    ext_normals = np.vstack([normals, eye, -eye])
    ext_offsets = np.concatenate([offsets, np.full(2 * box.dim, box.halfwidth)])
    working = sorted(set(active) | set(range(normals.shape[0], ext_normals.shape[0])))
    certified = False
    for _refinement in range(MAX_REFINEMENTS):
        cand = _solve_working_set(P, r, ext_normals, ext_offsets, working)
        if cand is None:
            break
        violation = ext_normals @ cand - ext_offsets
        if float(violation.max()) <= opts.tol:
            x, certified = cand, True
            break
        ranked = np.argsort(violation)[::-1][:8]
        fresh = [int(j) for j in ranked
                 if violation[j] > opts.tol and int(j) not in set(working)]
        if not fresh:
            break  # exact solve cannot satisfy its own rows; give up honestly
        working.extend(fresh)

    max_violation = max(float((ext_normals @ x - ext_offsets).max()), 0.0)
    objective = 0.5 * float(x @ P @ x) - float(r @ x) + const
    converged = (certified or (proj_ok and gm <= opts.tol)) and max_violation <= opts.tol
    return ComparatorResult(x_star=x, objective=objective,
                            converged=converged, max_violation=max_violation)


def solve_offline_comparator(evaluation: TraceEvaluation,
                             opts: ComparatorOptions | None = None) -> ComparatorResult:
    """Best fixed point for the evaluated rounds: minimize the summed averaged
    loss subject to every constraint of every agent at every round."""
    _require_nonempty(evaluation)
    spec = evaluation.problem
    return minimize_quadratic_over_polytope(
        evaluation.quad_P.sum(axis=0), evaluation.quad_r.sum(axis=0),
        float(evaluation.quad_c.sum()), Box(dim=spec.p, halfwidth=spec.halfwidth),
        evaluation.pool_normals, evaluation.pool_offsets, opts)


def fit_loglog_slope(series: MetricSeries, tail_fraction: float) -> float:
    """Least-squares slope of log(value) against log(horizon) on the tail.

    The window is the last ceil(tail_fraction * len) entries and must contain
    at least two points, all strictly positive.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must be in (0, 1]")
    count = math.ceil(tail_fraction * len(series))
    if count < 2:
        raise ValueError("tail window needs at least two points")
    h = series.horizons[-count:].astype(np.float64)
    v = series.values[-count:]
    if np.any(v <= 0.0):
        raise ValueError("nonpositive values in the tail window; slope undefined")
    slope, _ = np.polyfit(np.log(h), np.log(v), 1)
    return float(slope)


def envelope_exponent(theorem_id: str, c: float = 0.5) -> float | None:
    """Growth exponent for power-law envelopes; None for logarithmic ones."""
    if theorem_id not in ENVELOPE_IDS:
        raise ValueError(f"unknown envelope id {theorem_id!r}; known: {ENVELOPE_IDS}")
    if theorem_id.startswith(("T1", "T2")) and not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    power = {
        "T1-reg": max(c, 1.0 - c),
        "T1-ccv": 1.0 - c / 2.0,
        "T2-ccv": 1.0 - c,
    }
    return power.get(theorem_id)


def envelope_ids_for_mode(mode: str) -> tuple[str, ...]:
    """Envelope ids whose hypotheses match a schedule mode."""
    if mode == "theorem1":
        return ("T1-reg", "T1-ccv", "T2-ccv")
    if mode == "theorem4":
        return ("T4-reg", "T4-ccv", "T4-ccv-slater")
    return ()


def log_checkpoints(rounds: int) -> np.ndarray:
    """Distinct integer horizons, roughly log-spaced, at most 100 per decade."""
    if rounds < 1:
        return np.array([], dtype=np.int64)
    decades = math.log10(rounds) if rounds > 1 else 0.0
    count = max(2, math.ceil(100 * decades) + 1)
    grid = np.geomspace(1.0, float(rounds), num=count)
    points = np.unique(np.clip(np.rint(grid).astype(np.int64), 1, rounds))
    return points
