"""End-to-end acceptance checks, one test per shipping criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Measured quantities (slopes, ratios, violation counts) are embedded in the
assertion messages so a failing line carries its numbers. The horizon-1e4
simulations are shared across criteria through session fixtures; the whole
module takes several minutes.
"""

import time

import numpy as np
import pytest

from banditpd.cli import main, parse_config
from banditpd.engine import RunConfig, run_horizon
from banditpd.metrics import (
    MetricSeries,
    evaluate_trace,
    fit_loglog_slope,
    log_checkpoints,
    network_ccv,
    network_regret,
    solve_offline_comparator,
)
from banditpd.network import (
    GraphSchedule,
    build_mixing,
    generate_round_graph,
    validate_double_stochasticity,
    validate_joint_connectivity,
)
from banditpd.oracle import (
    FeedbackValues,
    StreamFactory,
    TwoPointSample,
    estimate_loss_grad,
    sample_unit_sphere,
    smoothed_value_mc,
)
from banditpd.problems import RegressionProblemSpec, materialize_round, compute_bounds

HEAVY_T = 10_000
HEAVY_SEEDS = (101, 102, 103, 104, 105)


def heavy_run(preset, *, b_offset=None, variant="paper", regret=False):
    """Seed-averaged metric series for a preset at the shared rate horizon."""
    overrides = {"run": {"horizon": HEAVY_T, "seeds": list(HEAVY_SEEDS),
                         "variant": variant}}
    if b_offset is not None:
        overrides["problem"] = {"b_offset": b_offset}
    cfg = parse_config(preset=preset, overrides=overrides)
    ccv_rows, reg_rows = [], []
    started = time.time()
    for seed in cfg.seeds:
        spec = cfg.problem_spec(seed)
        run_cfg = RunConfig(problem=spec, schedule=cfg.schedule,
                            graph=cfg.graph_schedule(seed), variant=cfg.variant,
                            bounds=compute_bounds(spec, cfg.horizon))
        trace = run_horizon(cfg.horizon, run_cfg)
        ev = evaluate_trace(trace)
        ccv_rows.append(network_ccv(trace, ev).values)
        if regret:
            comp = solve_offline_comparator(spec, trace.rounds, evaluation=ev)
            assert comp.converged, (
                f"offline comparator failed to certify for seed {seed} "
                f"(max_violation={comp.max_violation:.3g})")
            reg_rows.append(network_regret(trace, comp, ev).values)
    out = {
        "horizons": np.arange(1, HEAVY_T),
        "ccv": np.mean(ccv_rows, axis=0),
        "elapsed": time.time() - started,
    }
    if regret:
        out["reg"] = np.mean(reg_rows, axis=0)
    return out


def tail_slope(horizons, values, tail_fraction=0.5):
    cps = log_checkpoints(int(horizons[-1]))
    return fit_loglog_slope(MetricSeries(cps, values[cps - 1]), tail_fraction)


@pytest.fixture(scope="session")
def run_convex():
    """Criteria 3 and 8 share this: theorem1 schedule, compliant gamma0."""
    return heavy_run("desk-convex-c05", regret=True)


@pytest.fixture(scope="session")
def run_convex_slater():
    return heavy_run("desk-convex-c05", b_offset=1.0)


@pytest.fixture(scope="session")
def run_t4():
    return heavy_run("desk-strongly-convex-t4", regret=True)


@pytest.fixture(scope="session")
def run_t4_slater():
    return heavy_run("desk-strongly-convex-t4", b_offset=1.0)


@pytest.fixture(scope="session")
def run_clipped():
    return heavy_run("desk-convex-c05", variant="clipped-primal")


def test_criterion_01_invariant_suite():
    # Preset defaults are the criterion: T=2e3, seeds 101..103, strict checks.
    cfg = parse_config(preset="desk-convex-c05")
    assert cfg.horizon == 2000 and cfg.seeds == (101, 102, 103)
    started = time.time()
    for seed in cfg.seeds:
        spec = cfg.problem_spec(seed)
        run_cfg = RunConfig(problem=spec, schedule=cfg.schedule,
                            graph=cfg.graph_schedule(seed),
                            check_invariants="strict",
                            bounds=compute_bounds(spec, cfg.horizon))
        trace = run_horizon(cfg.horizon, run_cfg)  # raises on any violation
        assert all(v == 0 for v in trace.invariant_counters.values()), (
            f"seed {seed} invariant counters: {trace.invariant_counters}")
    elapsed = time.time() - started
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s (target < 60s)"


def test_criterion_02_estimator_correctness():
    # Part 1: unbiasedness for f(x) = ||x||^2 at 1e6 draws, p in {2, 5}.
    delta = 0.05
    for p, seed in ((2, 1), (5, 2)):
        rng = StreamFactory(seed).stream(0)
        x = rng.uniform(-1.0, 1.0, size=p)
        f_x = float(x @ x)
        zeros = np.zeros(1)
        total = np.zeros(p)
        total_sq = np.zeros(p)
        draws = 1_000_000
        for _ in range(draws):
            u = sample_unit_sphere(rng, p)
            probe = x + delta * u
            fb = FeedbackValues(f_at_x=f_x, f_at_probe=float(probe @ probe),
                                g_at_x=zeros, g_at_probe=zeros)
            est = estimate_loss_grad(fb, TwoPointSample(direction=u, radius=delta), p)
            total += est
            total_sq += est * est
        mean = total / draws
        se = np.sqrt((total_sq / draws - mean**2) / draws)
        offset = np.abs(mean - 2.0 * x)
        assert np.all(offset <= 3.0 * se), (
            f"p={p}: estimator mean {mean} vs 2x={2 * x}, "
            f"offset/se={offset / se}")

    # Part 2: smoothed-value sandwich on 20 random convex quadratics.
    rng = np.random.default_rng(7)
    for case in range(20):
        p = int(rng.integers(2, 6))
        M = rng.normal(size=(p, p))
        Q = M.T @ M + 0.1 * np.eye(p)
        b = rng.normal(size=p)

        def f(v, Q=Q, b=b):
            return 0.5 * v @ Q @ v + b @ v

        x = rng.uniform(-1.0, 1.0, size=p)
        delta_c = float(rng.uniform(0.01, 0.2))
        radius = float(np.linalg.norm(x)) + delta_c
        g1 = float(np.linalg.norm(Q, 2) * radius + np.linalg.norm(b))
        n_mc = 4000
        smoothed = smoothed_value_mc(f, x, delta_c, n_mc, rng)
        # Monte Carlo slack: the integrand is G1-Lipschitz on the ball, so
        # its spread is at most 2 G1 delta and the mean error scales with it.
        mc_err = 3.0 * 2.0 * g1 * delta_c / np.sqrt(n_mc)
        assert f(x) <= smoothed + mc_err, f"case {case}: lower bound broken"
        assert smoothed <= f(x) + g1 * delta_c + mc_err, f"case {case}: upper bound broken"

    # Part 3: the norm bound p*G1 holds exactly on 1e4 fuzz draws.
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(10_000):
        p = int(rng.integers(1, 7))
        x = rng.uniform(-2.0, 2.0, size=p)
        delta_f = float(rng.uniform(1e-3, 0.1))
        u = sample_unit_sphere(rng, p)
        probe = x + delta_f * u
        g1 = 2.0 * (2.0 * np.sqrt(p) + delta_f)  # sup ||grad|| over the segment
        fb = FeedbackValues(f_at_x=float(x @ x), f_at_probe=float(probe @ probe),
                            g_at_x=np.zeros(1), g_at_probe=np.zeros(1))
        est = estimate_loss_grad(fb, TwoPointSample(direction=u, radius=delta_f), p)
        if float(np.linalg.norm(est)) > p * g1:
            failures += 1
    assert failures == 0, f"norm bound exceeded on {failures}/10000 draws"


def test_criterion_03_rates_theorem1_schedule(run_convex):
    reg, ccv = run_convex["reg"], run_convex["ccv"]
    h = run_convex["horizons"]
    ccv_slope = tail_slope(h, ccv)
    parts = [f"Net-CCV tail slope {ccv_slope:.4f} (need <= 0.85)"]
    ccv_ok = ccv_slope <= 0.85
    try:
        reg_slope = tail_slope(h, reg)
        reg_ok = reg_slope <= 0.75
        parts.append(f"Net-Reg tail slope {reg_slope:.4f} (need <= 0.75)")
    except ValueError:
        reg_ok = False
        parts.append(
            f"Net-Reg tail slope undefined: regret is nonpositive across the "
            f"tail (reg@1000={reg[999]:.1f}, reg@{h[-1]}={reg[-1]:.1f}); the "
            f"schedule's compliant dual gain leaves iterates below the "
            f"comparator's constrained loss at this horizon")
    assert run_convex["elapsed"] < 600.0, (
        f"rate run took {run_convex['elapsed']:.0f}s (target < 600s)")
    assert ccv_ok and reg_ok, "; ".join(parts)


def test_criterion_04_slater_ccv_reduction(run_convex, run_convex_slater):
    h = run_convex["horizons"]
    base_slope = tail_slope(h, run_convex["ccv"])
    slater_slope = tail_slope(run_convex_slater["horizons"], run_convex_slater["ccv"])
    msg = (f"Net-CCV tail slope with margin 1.0: {slater_slope:.4f} "
           f"(need <= 0.65 and < matched-seed baseline {base_slope:.4f})")
    assert slater_slope <= 0.65 and slater_slope < base_slope, msg


def test_criterion_05_strongly_convex_log_growth(run_t4, run_t4_slater):
    reg = run_t4["reg"]
    reg_lo, reg_hi = float(reg[999]), float(reg[-1])
    ccv = run_t4_slater["ccv"]
    ccv_lo, ccv_hi = float(ccv[999]), float(ccv[-1])
    parts = []
    if reg_lo > 0.0 and reg_hi > 0.0:
        reg_ratio = reg_hi / reg_lo
        reg_ok = reg_ratio <= 2.5
        parts.append(f"Net-Reg(1e4)/Net-Reg(1e3) = {reg_ratio:.3f} (need <= 2.5)")
    else:
        reg_ok = False
        parts.append(
            f"Net-Reg ratio undefined: regret nonpositive "
            f"(reg@1000={reg_lo:.1f}, reg@9999={reg_hi:.1f}), so the "
            f"log-growth proxy has no meaning at this horizon")
    ccv_ratio = ccv_hi / ccv_lo
    ccv_ok = ccv_ratio <= 3.0
    parts.append(f"Net-CCV(1e4)/Net-CCV(1e3) = {ccv_ratio:.3f} (need <= 3, margin 1.0)")
    assert reg_ok and ccv_ok, "; ".join(parts)


def test_criterion_06_graph_validity():
    # Double stochasticity on the full generator (random edges + backbone).
    full = GraphSchedule(n=100, edge_prob=0.1, backbone=True, seed=101)
    for t in range(1, 1001):
        W = build_mixing(generate_round_graph(full, t), 100).entries
        assert validate_double_stochasticity(W, tol=1e-12), f"round {t} not doubly stochastic"

    # Window tightness is a property of the deterministic backbone rotation:
    # four quarter-blocks per cycle, so any 4 consecutive rounds connect the
    # network and no 3-round window can.
    backbone = GraphSchedule(n=100, edge_prob=0.0, backbone=True, seed=101)
    graphs = [generate_round_graph(backbone, t) for t in range(1, 1001)]
    assert validate_joint_connectivity(graphs, B=4, n=100)
    assert not validate_joint_connectivity(graphs, B=3, n=100)


def test_criterion_07_comparator_matches_grid():
    worst_dx, worst_df = 0.0, 0.0
    for seed in range(1, 11):
        spec = RegressionProblemSpec(n=1, p=2, q_i=2, m_i=1, halfwidth=1.5,
                                     b_offset=0.5, mu_reg=4.0, seed=seed)
        rounds = 5
        res = solve_offline_comparator(spec, rounds)
        assert res.converged, f"seed {seed}: comparator did not certify"

        P = np.zeros((2, 2))
        r = np.zeros(2)
        const = 0.0
        normals, offsets = [], []
        for k in range(rounds):
            A, theta, B, b = materialize_round(spec, k + 1)
            P += np.einsum("jqa,jqb->ab", A, A) + spec.mu_reg * np.eye(2)
            r += np.einsum("jqp,jq->p", A, theta)
            const += 0.5 * float(np.einsum("jq,jq->", theta, theta))
            normals.append(B.reshape(-1, 2))
            offsets.append(b.reshape(-1))
        N, O = np.vstack(normals), np.concatenate(offsets)

        grid = np.arange(-1.5, 1.5 + 1e-12, 0.01)
        X, Y = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        feasible = np.all(pts @ N.T <= O + 1e-12, axis=1)
        vals = 0.5 * np.einsum("ip,pq,iq->i", pts, P, pts) - pts @ r + const
        vals = np.where(feasible, vals, np.inf)
        best = int(np.argmin(vals))

        worst_dx = max(worst_dx, float(np.max(np.abs(res.x_star - pts[best]))))
        worst_df = max(worst_df, float(abs(res.objective - vals[best])))
    assert worst_dx <= 0.02 and worst_df <= 1e-3, (
        f"worst linf distance {worst_dx:.4f} (need <= 0.02), "
        f"worst objective gap {worst_df:.2e} (need <= 1e-3)")


def test_criterion_08_clipped_ablation_direction(run_convex, run_clipped):
    paper_final = float(run_convex["ccv"][-1])
    clipped_final = float(run_clipped["ccv"][-1])
    # Report both values; the criterion asserts only the direction.
    assert clipped_final >= paper_final, (
        f"clipped-primal Net-CCV(1e4) = {clipped_final:.2f} fell below the "
        f"default variant's {paper_final:.2f} at matched seeds")


def test_criterion_09_deterministic_outputs(tmp_path):
    args = ["--preset", "desk-convex-c05", "--horizon", "300",
            "--seed-list", "101,102"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("seed-101.csv", "seed-102.csv", "seed-averaged.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), (
            f"{name} differs between identical runs")

    # A seed's outputs do not depend on which other seeds share the run.
    alone = ["--preset", "desk-convex-c05", "--horizon", "300", "--seed-list", "101"]
    assert main(alone + ["--out", str(tmp_path / "alone")]) == 0
    a = (tmp_path / "alone" / "seed-101.csv").read_bytes()
    b = (tmp_path / "a" / "seed-101.csv").read_bytes()
    assert a == b, "seed-101.csv differs between --seed-list 101 and 101,102"
