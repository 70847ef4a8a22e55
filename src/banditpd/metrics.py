"""Network regret, cumulative constraint violation, the offline comparator,
and log-log slope fitting.

evaluate_trace reads the recorded problem data of all rounds at once, with no
loop over rounds. The network metrics score every agent's consensus point
against the averaged loss f_t = (1/n) sum_j f_{j,t}, which for least-squares
losses is one quadratic per round, x'P_t x/2 - r_t'x + c_t. Whole-trace
einsums form those coefficients, each round's CCV increment sums every
agent's clipped constraint rows, and the pooled constraint halfspaces are
views of the trace. The network loss, f_t(x*) for the regret and the offline
comparator all read the same (P_t, r_t, c_t).

The offline comparator is one exact method: a working-set solve by NNLS
least-distance programming (Lawson & Hanson 1974, ch. 23), certified by the
solve itself when the summed loss matrix is positive definite and by the KKT
conditions of proximal-point steps when it is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .geometry import Box
from .geometry import project_intersection  # noqa: F401  looked up by perfbench/child.py:TRACED
from .problems import RegressionProblemSpec

# Comparator internals: the feasibility and KKT tolerance of a certified
# answer, the cap on exact working-set solves per call, and the proximal
# weight, relative to trace(P), of the singular-P path.
COMPARATOR_TOL = 1e-6
MAX_REFINEMENTS = 128
PROX_WEIGHT = 1e-6


@dataclass
class ComparatorResult:
    x_star: np.ndarray
    objective: float
    converged: bool
    max_violation: float
    refinements: int
    working_rows: int


@dataclass
class TraceEvaluation:
    """Per-round quantities from the pass over a trace.

    quad_* hold the coefficients of the averaged loss f_t(x) = x'Px/2 - r'x + c
    (the ridge term is in P), mean_loss_inc[k] is (1/n) sum_i f_t(x_{i,t}) for
    t = k+1, ccv_inc[k] is the mean over i of the stacked clipped-constraint
    norm at x_{i,t}, and pool_* are every round's constraint halfspaces (views
    of the trace's B and b).
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


def _mean_round_loss(P, r, c, X) -> np.ndarray:
    """(1/k) sum_i (x_i'P_t x_i/2 - r_t'x_i) + c_t for each round t, where
    X[t] holds the round's k points: (T, p, p), (T, p), (T,), (T, k, p) -> (T,)."""
    PX = np.einsum("tpq,tiq->tip", P, X)
    return (0.5 * np.einsum("tip,tip->ti", X, PX) - np.einsum("tp,tip->ti", r, X)).mean(axis=1) + c


def evaluate_trace(trace) -> TraceEvaluation:
    spec = trace.problem
    n, p = spec.n, spec.p
    A, theta, X = trace.A, trace.theta, trace.x_hist
    quad_P = np.einsum("tjqa,tjqb->tab", A, A) / n
    if spec.mu_reg:
        quad_P += spec.mu_reg * np.eye(p)
    quad_r = np.einsum("tjqp,tjq->tp", A, theta) / n
    quad_c = 0.5 * np.einsum("tjq,tjq->t", theta, theta) / n

    # |[g_t(x_{i,t})]_+|^2 summed one agent j at a time: (T, n, m), not (T, n, n, m).
    sq = np.zeros(X.shape[:2])
    for j in range(n):
        slack = np.einsum("tmp,tip->tim", trace.B[:, j], X) - trace.b[:, j, None, :]
        np.clip(slack, 0.0, None, out=slack)
        sq += np.einsum("tim,tim->ti", slack, slack)

    return TraceEvaluation(
        problem=spec, rounds=trace.rounds,
        mean_loss_inc=_mean_round_loss(quad_P, quad_r, quad_c, X),
        ccv_inc=np.sqrt(sq).mean(axis=1), quad_P=quad_P, quad_r=quad_r, quad_c=quad_c,
        pool_normals=trace.B.reshape(-1, p), pool_offsets=trace.b.reshape(-1),
    )


def network_regret(ev: TraceEvaluation, x_star: np.ndarray) -> np.ndarray:
    """Running sum of the averaged loss gap to the fixed point x*.

    Every checkpoint T' is scored against the x* of all rounds 1..T-1, which
    is feasible for rounds 1..T', so at T' < T-1 the value is a lower bound on
    the paper's Net-Reg(T'), whose comparator is the best point of 1..T'.
    """
    X = np.broadcast_to(np.asarray(x_star, dtype=np.float64), ev.quad_r[:, None, :].shape)
    return np.cumsum(ev.mean_loss_inc - _mean_round_loss(ev.quad_P, ev.quad_r, ev.quad_c, X))


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


def _solve_working_set(L, L_inv_t, x_free, normals, offsets, working):
    """Exact minimum of x'Hx/2 - (H x_free)'x subject to the working rows alone,
    where L is the Cholesky factor of H and L_inv_t = inv(L)'.

    The factor turns the subproblem into a least-distance problem centered on
    the unconstrained minimizer x_free. The y coordinates are scaled so the
    answer has norm near one: the recovery in _least_distance divides by a
    residual of size 1/(1 + |y*|^2), so an unscaled far-away solution loses
    exactly the digits the certificate needs. The scale uses the origin as
    anchor, a strictly feasible point for every generated problem. Returns
    None when the working rows are numerically infeasible.
    """
    A = normals[working]
    sigma = 1.0 + float(np.linalg.norm(L.T @ x_free))
    y = _least_distance(-(A @ L_inv_t) * sigma, A @ x_free - offsets[working])
    if y is None:
        return None
    return L_inv_t @ (sigma * y) + x_free


def _kkt_residual(P, r, x, normals, offsets) -> float:
    """|P x - r + G'lam| for the NNLS multipliers lam >= 0 on the rows G that
    are active at x to within COMPARATOR_TOL."""
    grad = P @ x - r
    G = normals[offsets - normals @ x <= COMPARATOR_TOL]
    lam = nnls(G.T, -grad)[0] if G.shape[0] else np.zeros(0)
    return float(np.linalg.norm(grad + G.T @ lam))


def minimize_quadratic_over_polytope(P, r, const, box: Box, normals, offsets) -> ComparatorResult:
    """Minimize x'Px/2 - r'x + const over box ∩ {normals @ x <= offsets}.

    Exact working-set method with constraint generation. The 2p box faces
    join the pool as rows and start the working set; each refinement solves
    the program on the working rows alone, exactly, by least-distance NNLS,
    and up to eight of the worst pool rows its answer violates join the set.
    An exact minimizer over a row subset that meets every row to
    COMPARATOR_TOL is the minimizer over the pool: the certificate when P is
    positive definite.

    A singular P (no ridge term and fewer loss rows than dimensions; a
    Cholesky pivot squared at most PROX_WEIGHT * trace(P)) makes each answer
    that meets the pool a proximal-point step, the minimizer of the program
    plus rho/2 |x - x_prev|^2 with rho = PROX_WEIGHT * trace(P) and x_prev the
    last step (first the origin). A step is certified when NNLS multipliers on
    the rows active to within COMPARATOR_TOL cancel P x - r to COMPARATOR_TOL
    times (|P x| + |r|).

    converged means certified and max_violation <= COMPARATOR_TOL;
    refinements counts the exact solves (at most MAX_REFINEMENTS),
    working_rows the final working-set size, box faces included.
    """
    P = np.asarray(P, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, box.dim)
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1)
    if normals.shape[0] != offsets.shape[0]:
        raise ValueError("normals and offsets disagree on row count")

    eye = np.eye(box.dim)
    ext_normals = np.vstack([normals, eye, -eye])
    ext_offsets = np.concatenate([offsets, np.full(2 * box.dim, box.halfwidth)])
    working = list(range(normals.shape[0], ext_normals.shape[0]))

    # One factorization per call, of H = P, or of P + rho*I when P is singular.
    rho, H = 0.0, P
    try:
        L = np.linalg.cholesky(P)
        singular = float(np.diag(L).min()) ** 2 <= PROX_WEIGHT * float(np.trace(P))
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        rho = PROX_WEIGHT * (float(np.trace(P)) or 1.0)
        H = P + rho * eye
        L = np.linalg.cholesky(H)
    L_inv_t = np.linalg.inv(L).T

    x = np.zeros(box.dim)
    x_free = np.linalg.solve(H, r)
    certified = False
    refinements = 0
    while not certified and refinements < MAX_REFINEMENTS:
        refinements += 1
        cand = _solve_working_set(L, L_inv_t, x_free, ext_normals, ext_offsets, working)
        if cand is None:
            break
        violation = ext_normals @ cand - ext_offsets
        if float(violation.max()) > COMPARATOR_TOL:
            fresh = [int(j) for j in np.argsort(violation)[::-1][:8]
                     if violation[j] > COMPARATOR_TOL and int(j) not in working]
            if not fresh:
                break  # exact solve cannot satisfy its own rows; give up honestly
            working.extend(fresh)
            continue
        x = cand
        certified = not singular or (
            _kkt_residual(P, r, x, ext_normals, ext_offsets)
            <= COMPARATOR_TOL * float(np.linalg.norm(P @ x) + np.linalg.norm(r)))
        if not certified:
            x_free = np.linalg.solve(H, r + rho * x)  # the next proximal centre

    max_violation = max(float((ext_normals @ x - ext_offsets).max()), 0.0)
    objective = 0.5 * float(x @ P @ x) - float(r @ x) + const
    return ComparatorResult(x_star=x, objective=objective,
                            converged=certified and max_violation <= COMPARATOR_TOL,
                            max_violation=max_violation, refinements=refinements,
                            working_rows=len(working))


def solve_offline_comparator(evaluation: TraceEvaluation) -> ComparatorResult:
    """Best fixed point for the evaluated rounds: minimize the summed averaged
    loss subject to every constraint of every agent at every round."""
    if evaluation.rounds < 1:
        raise ValueError("trace is empty; no rounds to compare against")
    spec = evaluation.problem
    return minimize_quadratic_over_polytope(
        evaluation.quad_P.sum(axis=0), evaluation.quad_r.sum(axis=0),
        float(evaluation.quad_c.sum()), Box(dim=spec.p, halfwidth=spec.halfwidth),
        evaluation.pool_normals, evaluation.pool_offsets)


def fit_loglog_slope(horizons, values, tail_fraction: float) -> float:
    """Least-squares slope of log(value) against log(horizon) on the tail.

    horizons and values are equal-length 1-D arrays. The window is their last
    ceil(tail_fraction * len) entries and must contain at least two points,
    all strictly positive.
    """
    h = np.asarray(horizons, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if h.shape != v.shape or h.ndim != 1:
        raise ValueError("horizons and values must be 1-D and equal length")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must be in (0, 1]")
    count = math.ceil(tail_fraction * h.size)
    if count < 2:
        raise ValueError("tail window needs at least two points")
    h, v = h[-count:], v[-count:]
    if np.any(v <= 0.0):
        raise ValueError("nonpositive values in the tail window; slope undefined")
    slope, _ = np.polyfit(np.log(h), np.log(v), 1)
    return float(slope)


def log_checkpoints(rounds: int) -> np.ndarray:
    """Distinct integer horizons, roughly log-spaced, at most 100 per decade."""
    if rounds < 1:
        return np.array([], dtype=np.int64)
    decades = math.log10(rounds) if rounds > 1 else 0.0
    count = max(2, math.ceil(100 * decades) + 1)
    grid = np.geomspace(1.0, float(rounds), num=count)
    points = np.unique(np.clip(np.rint(grid).astype(np.int64), 1, rounds))
    return points
