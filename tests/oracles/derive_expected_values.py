"""Independent derivations of the expected values frozen into the test suite.

Run as a script to print every value. Each derivation deliberately avoids the
package under test: plain arithmetic, closed forms, scipy's SLSQP, and a
breadth-first-search connectivity check stand in as second routes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize


def quadratic_qp(P, r, halfwidth, normals, offsets, ftol=1e-12):
    """Minimizer of x'Px/2 - r'x over the box cut by {normals @ x <= offsets}, via SLSQP."""
    P, r = np.asarray(P, dtype=float), np.asarray(r, dtype=float)
    normals, offsets = np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)
    res = minimize(
        lambda x: 0.5 * x @ P @ x - r @ x,
        x0=np.zeros(r.size),
        jac=lambda x: P @ x - r,
        bounds=[(-halfwidth, halfwidth)] * r.size,
        constraints=[{"type": "ineq", "fun": lambda x: offsets - normals @ x,
                      "jac": lambda x: -normals}],
        method="SLSQP",
        options={"ftol": ftol, "maxiter": 500},
    )
    assert res.success, res.message
    return res.x


def projection_qp(target, halfwidth, halfspaces):
    """Nearest point to ``target`` in the box intersected with halfspaces, via SLSQP."""
    target = np.asarray(target, dtype=float)
    normals = [a for a, _beta in halfspaces]
    offsets = [beta for _a, beta in halfspaces]
    return quadratic_qp(np.eye(target.size), target, halfwidth, normals, offsets, ftol=1e-14)


def backbone_edges(n, t):
    """Chain-edge blocks of size ceil(n/4), block k active when t == k mod 4."""
    size = math.ceil(n / 4)
    k = (t - 1) % 4
    lo = k * size + 1
    hi = min((k + 1) * size, n - 1)
    return {(i, i + 1) for i in range(lo, hi + 1)}


def connected_bfs(n, edges):
    adj = {i: set() for i in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def main():
    out = {}

    # Componentwise clamp of (4, 4) to the box scaled by (1 - 0.5) with h = 5.
    h, shrink = 5.0, 0.5
    out["project_scaled_box5_shrink05_of_(4,4)"] = tuple(
        min(max(v, -(1 - shrink) * h), (1 - shrink) * h) for v in (4.0, 4.0)
    )

    # Halfspace {<a,x> <= beta} projection formula x - ((a.x - beta)/||a||^2) a.
    a, beta, x = np.array([0.0, 1.0]), 1.0, np.array([3.0, 4.0])
    out["project_halfspace_a(0,1)_b1_of_(3,4)"] = tuple(x - ((a @ x - beta) / (a @ a)) * a)

    # Intersection projection QPs solved with scipy (independent of Dykstra).
    out["intersect_box5_{x1<=0}_of_(2,2)"] = tuple(
        np.round(projection_qp([2, 2], 5.0, [([1, 0], 0.0)]), 10)
    )
    out["intersect_box5_{x1+x2<=0,x1-x2<=0}_of_(2,0)"] = tuple(
        np.round(projection_qp([2, 0], 5.0, [([1, 1], 0.0), ([1, -1], 0.0)]), 10)
    )

    # Two-point gradient estimates for f(x) = x^2 at x = 1 with delta = 0.1.
    f = lambda v: v * v
    for u in (+1.0, -1.0):
        est = (1 / 0.1) * (f(1 + 0.1 * u) - f(1.0)) * u
        out[f"loss_grad_p1_u{u:+.0f}"] = round(est, 12)

    # Rank-1 Jacobian estimate: outer(u, (p/delta) * dg).
    u2, dg, p2, delta2 = np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2, 0.5
    out["jacobian_p2_rows"] = tuple(map(tuple, np.outer(u2, (p2 / delta2) * dg)))

    # Second moment of a uniform unit-ball draw: radius density p r^(p-1)
    # gives E r^2 = p/(p+2); cross-checked by numeric quadrature at p = 2.
    grid = np.linspace(0, 1, 2_000_001)
    quad = np.trapezoid(grid**2 * 2 * grid, grid)
    out["ball_second_moment_p2_closed_form"] = 2 / (2 + 2)
    out["ball_second_moment_p2_quadrature"] = round(float(quad), 9)

    # Mixing matrix rule: 1/n per incident edge, diagonal tops up the row.
    n = 4
    W = np.eye(n)
    i, j = 0, 1
    W[i, j] = W[j, i] = 1 / n
    W[i, i] = W[j, j] = 1 - 1 / n
    out["mixing_n4_edge(1,2)"] = (W[0, 1], W[0, 0], W[2, 2])

    # Backbone joint connectivity at n = 100 via BFS over window unions.
    n = 100
    rounds = [backbone_edges(n, t) for t in range(1, 41)]
    for B in (4, 3):
        ok = all(
            connected_bfs(n, set().union(*rounds[s : s + B]))
            for s in range(len(rounds) - B + 1)
        )
        out[f"backbone_n100_window{B}_connected"] = ok

    # Schedule values by direct formula evaluation.
    c, g0, rX, t = 0.5, 0.1, 5.0, 4
    out["theorem1_c05_g01_rx5_t4"] = (t**-c, g0 * t**c, t**-c, rX * t**-c)
    mu, t4 = 2.0, 10
    out["theorem4_mu2_t10_alpha"] = 1 / (mu * t4)
    out["table2_t1"] = (1.0, 0.15, 1.0, 0.01)
    out["table2_t10"] = (1 / 10, 0.15 * 10, 1 / 10, 0.01 / 10)
    out["default_gamma0_p1_G2_05"] = 1 / (4 * (1**2 + 1) * 0.5**2)
    out["default_gamma0_p10_G2_1"] = 1 / (4 * (10**2 + 1) * 1**2)

    # Consensus mix for n = 2 scalars.
    W2 = np.array([[0.75, 0.25], [0.25, 0.75]])
    out["consensus_n2"] = tuple(W2 @ np.array([4.0, 0.0]))

    # Primal step: raw move 2 - 1*(-3) = 5 clamps to half-width 2.5.
    raw = 2.0 - 1.0 * (-3.0)
    z = min(max(raw, -2.5), 2.5)
    out["primal_step_clamp"] = (z, abs(z - 2.0))

    # Dual update: 0.15 * max(0.2, 0).
    out["dual_scale015_g02"] = 0.15 * 0.2

    # Constraint evaluation B x - b.
    out["constraint_B(1,1)_b1_x(2,0)"] = tuple(np.array([[1.0, 1.0]]) @ np.array([2.0, 0.0]) - 1.0)

    # Stacked clipped-constraint norm for per-agent norms a, b.
    aa, bb = 1.25, 2.5
    out["stacked_norm"] = math.sqrt(aa**2 + bb**2)

    for k, v in out.items():
        print(f"{k} = {v}")


if __name__ == "__main__":
    main()
