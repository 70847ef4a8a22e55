"""Checks of a banditpd CLI run's outputs, computed apart from the program.

Only the round data (A, theta, B, b) is taken from the program, through
banditpd.problems.materialize; every other quantity is recomputed here from
its definition and compared with what the CLI wrote. Each failed check is
returned as a Failure naming the seed it concerns (None for a whole-run
check), so a caller can count failed operations per seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

from banditpd.problems import RegressionProblemSpec, materialize

CSV_COLUMNS = ["T", "net_regret", "net_ccv", "cum_loss", "mean_step_norm", "mean_dual_norm"]

FEAS_TOL = 1e-6       # the accuracy the comparator certificate promises
ACTIVE_TOL = 1e-7     # slack below which a row counts as near-active for KKT
KKT_RTOL = 1e-6       # KKT residual relative to |P x*| + |r|
VALUE_RTOL = 1e-9     # sums recomputed in another order
POINT_RTOL = 1e-10    # single-round values recomputed in another order
MEAN_RTOL = 1e-12     # seed means of values printed with 17 digits


@dataclass(frozen=True)
class Failure:
    seed: int | None
    check: str
    detail: str

    def __str__(self) -> str:
        where = "run" if self.seed is None else f"seed {self.seed}"
        return f"{where}: {self.check}: {self.detail}"


@dataclass
class RoundData:
    """Stacked problem data of rounds 1..rounds, shapes (rounds, n, ...)."""

    A: np.ndarray
    theta: np.ndarray
    B: np.ndarray
    b: np.ndarray


def load_round_data(spec: RegressionProblemSpec, rounds: int) -> RoundData:
    n, p, q, m = spec.n, spec.p, spec.q_i, spec.m_i
    A = np.empty((rounds, n, q, p))
    theta = np.empty((rounds, n, q))
    B = np.empty((rounds, n, m, p))
    b = np.empty((rounds, n, m))
    for k in range(rounds):
        for j in range(n):
            inst = materialize(spec, j + 1, k + 1)
            A[k, j], theta[k, j], B[k, j], b[k, j] = inst.A, inst.theta, inst.B, inst.b
    return RoundData(A, theta, B, b)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def gamma_t(schedule: dict, t: int) -> float:
    """Dual scale gamma_t = gamma0 / alpha_t of each schedule mode."""
    if schedule["mode"] == "theorem1":
        alpha = float(t) ** (-schedule["c"])
    elif schedule["mode"] == "theorem4":
        alpha = 1.0 / (schedule["mu"] * t)
    else:
        ov = schedule["overrides"]
        alpha = ov["alpha_scale"] * float(t) ** (-ov["alpha_exponent"])
    return schedule["gamma0"] / alpha


def _close(a, b, rtol, scale=1.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rtol * max(scale, 1.0)))


def check_seed_file(seed: int, header, table, rounds: int, regret: bool) -> list[Failure]:
    out: list[Failure] = []
    if header != CSV_COLUMNS:
        return [Failure(seed, "csv_header", f"got {header}")]
    T = table[:, 0]
    if T[0] != 1 or T[-1] != rounds or np.any(np.diff(T) <= 0):
        out.append(Failure(seed, "checkpoints", f"T runs {T[0]:g}..{T[-1]:g}, expected 1..{rounds}"))
    ccv, loss = table[:, 2], table[:, 3]
    if np.any(ccv < 0) or np.any(np.diff(ccv) < 0):
        out.append(Failure(seed, "ccv_monotone", "net_ccv negative or decreasing"))
    if np.any(loss <= 0) or np.any(np.diff(loss) < 0):
        out.append(Failure(seed, "loss_monotone", "cum_loss nonpositive or decreasing"))
    if not regret and not np.all(np.isnan(table[:, 1])):
        out.append(Failure(seed, "regret_off", "net_regret is not nan under --no-regret"))
    return out


def check_comparator(seed: int, entry: dict, table, data: RoundData, config: dict) -> list[Failure]:
    """x* feasible and KKT-optimal; net_regret(T) = cum_loss(T) - sum_t f_t(x*)."""
    comp = entry.get("comparator")
    if not comp or not comp.get("converged"):
        return [Failure(seed, "comparator_missing", f"comparator entry {comp!r}")]
    x = np.array(comp["x_star"], dtype=np.float64)
    problem = config["problem"]
    h, mu, n = problem["halfwidth"], problem["mu_reg"], problem["n"]
    rounds = data.A.shape[0]
    out: list[Failure] = []

    if np.any(np.abs(x) > h + FEAS_TOL):
        out.append(Failure(seed, "x_star_box", f"|x*|max = {np.abs(x).max():.17g} > {h}"))
    normals = data.B.reshape(-1, x.size)
    offsets = data.b.reshape(-1)
    slack = offsets - normals @ x
    if slack.min() < -FEAS_TOL:
        out.append(Failure(seed, "x_star_feasible", f"worst row violated by {-slack.min():.3g}"))

    P = np.einsum("tjqa,tjqb->ab", data.A, data.A) / n + rounds * mu * np.eye(x.size)
    r = np.einsum("tjqp,tjq->p", data.A, data.theta) / n
    grad = P @ x - r
    near = slack <= ACTIVE_TOL * (1.0 + np.abs(offsets))
    box_rows = np.vstack([np.eye(x.size), -np.eye(x.size)])
    box_near = (h - np.concatenate([x, -x])) <= ACTIVE_TOL * (1.0 + h)
    G = np.vstack([normals[near], box_rows[box_near]])
    residual = grad
    if G.shape[0]:
        lam, _ = nnls(G.T, -grad)
        residual = grad + G.T @ lam
    scale = float(np.linalg.norm(P @ x) + np.linalg.norm(r))
    if np.linalg.norm(residual) > KKT_RTOL * scale:
        out.append(Failure(seed, "x_star_kkt", f"|P x* - r + G'lam| = {np.linalg.norm(residual):.3g}"
                           f" against scale {scale:.3g} with {G.shape[0]} near-active rows"))

    resid = np.einsum("tjqp,p->tjq", data.A, x) - data.theta
    star_sum = float((0.5 * np.einsum("tjq,tjq->", resid, resid) / n
                      + rounds * 0.5 * mu * float(x @ x)))
    cum_loss, net_regret = table[-1, 3], table[-1, 1]
    expected = cum_loss - star_sum
    if not abs(net_regret - expected) <= VALUE_RTOL * max(1.0, abs(cum_loss), abs(star_sum)):
        out.append(Failure(seed, "regret_identity",
                           f"net_regret(T) = {net_regret:.17g}, cum_loss - sum f_t(x*) = {expected:.17g}"))
    return out


def check_seed_average(seed_tables: dict[int, np.ndarray], averaged, seeds) -> list[Failure]:
    stack = np.stack([seed_tables[s] for s in seeds])
    if averaged.shape != stack.shape[1:] or not np.array_equal(averaged[:, 0], stack[0, :, 0]):
        return [Failure(None, "seed_average", "seed-averaged.csv rows differ from the seed files")]
    mean = stack[:, :, 1:].mean(axis=0)
    got = averaged[:, 1:]
    both_nan = np.isnan(mean) & np.isnan(got)
    scale = np.nanmax(np.abs(mean), axis=0, initial=0.0)
    ok = both_nan | (np.abs(got - mean) <= MEAN_RTOL * np.maximum(scale, 1.0))
    if not np.all(ok):
        rows, cols = np.nonzero(~ok)
        return [Failure(None, "seed_average",
                        f"{rows.size} entries differ, first at T={averaged[rows[0], 0]:g} "
                        f"column {CSV_COLUMNS[cols[0] + 1]}")]
    return []


def check_trace(seed: int, arrays, table, data: RoundData, config: dict,
                sample_rounds) -> list[Failure]:
    """Recompute the trace-level quantities of a traced run.

    Every consensus point lies in the box; at the sampled rounds the own loss,
    the clipped constraint values and the dual norm match their definitions;
    cum_loss and net_ccv at every checkpoint match sums recomputed from the
    recorded consensus points; the mean step and dual columns match the trace.
    """
    problem = config["problem"]
    h, mu, n = problem["halfwidth"], problem["mu_reg"], problem["n"]
    X = arrays["x_hist"]
    out: list[Failure] = []
    if X.shape != (data.A.shape[0], n, problem["p"]):
        return [Failure(seed, "trace_shape", f"x_hist shape {X.shape}")]
    if np.abs(X).max() > h * (1.0 + 1e-12):
        out.append(Failure(seed, "consensus_box", f"|x|max = {np.abs(X).max():.17g} > {h}"))

    for t in sample_rounds:
        k = t - 1
        x = X[k]
        res = np.einsum("iqp,ip->iq", data.A[k], x) - data.theta[k]
        loss = 0.5 * np.einsum("iq,iq->i", res, res) + 0.5 * mu * np.einsum("ip,ip->i", x, x)
        if not _close(arrays["loss"][k], loss, POINT_RTOL, float(np.abs(loss).max())):
            out.append(Failure(seed, "sampled_loss", f"round {t}"))
        g = np.maximum(np.einsum("imp,ip->im", data.B[k], x) - data.b[k], 0.0)
        if not _close(arrays["g_clipped"][k], g, POINT_RTOL, float(np.abs(data.b[k]).max())):
            out.append(Failure(seed, "sampled_g_clipped", f"round {t}"))
        dual = gamma_t(config["schedule"], t) * np.sqrt(np.einsum("im,im->i", g, g))
        if not _close(arrays["dual_norm"][k], dual, POINT_RTOL, float(np.abs(dual).max())):
            out.append(Failure(seed, "sampled_dual_norm", f"round {t}"))

    # f_{j,t}(x_{i,t}) for every pair, then the network sums of both metrics.
    res = np.einsum("tjqp,tip->tjiq", data.A, X) - data.theta[:, :, None, :]
    loss_pairs = 0.5 * np.einsum("tjiq,tjiq->tji", res, res)
    loss_pairs += 0.5 * mu * np.einsum("tip,tip->ti", X, X)[:, None, :]
    cum_loss = np.cumsum(loss_pairs.mean(axis=(1, 2)))
    viol = np.maximum(np.einsum("tjmp,tip->tjim", data.B, X) - data.b[:, :, None, :], 0.0)
    ccv = np.cumsum(np.sqrt(np.einsum("tjim,tjim->ti", viol, viol)).mean(axis=1))
    idx = table[:, 0].astype(np.int64) - 1
    if not _close(table[:, 3], cum_loss[idx], VALUE_RTOL, float(cum_loss[-1])):
        out.append(Failure(seed, "cum_loss_recomputed", "cum_loss column differs from the recomputed sums"))
    if not _close(table[:, 2], ccv[idx], VALUE_RTOL, float(ccv[-1])):
        out.append(Failure(seed, "ccv_recomputed", "net_ccv column differs from the recomputed sums"))
    if not (_close(table[:, 4], arrays["step_norm"][idx].mean(axis=1), POINT_RTOL)
            and _close(table[:, 5], arrays["dual_norm"][idx].mean(axis=1), POINT_RTOL,
                       float(np.abs(table[:, 5]).max()))):
        out.append(Failure(seed, "step_dual_columns", "mean step/dual columns differ from the trace"))
    return out


class RunChecker:
    """Checks one CLI run's output directory; caches round data per seed."""

    def __init__(self):
        self._data: dict[tuple, RoundData] = {}

    def round_data(self, config: dict, seed: int) -> RoundData:
        spec = RegressionProblemSpec(seed=seed, **config["problem"])
        rounds = config["run"]["horizon"] - 1
        key = (spec, rounds)
        if key not in self._data:
            self._data[key] = load_round_data(spec, rounds)
        return self._data[key]

    def check(self, out_dir: Path, seeds, horizon: int, regret: bool,
              traces: dict[int, dict] | None = None, sample_rounds=()) -> list[Failure]:
        """All checks of one run; traces maps seed -> arrays of a traced run."""
        report = json.loads((out_dir / "report.json").read_text())
        config = report["config"]
        run = config["run"]
        if run["horizon"] != horizon or run["seeds"] != list(seeds) or run["regret"] != regret:
            return [Failure(None, "config", f"report config run section {run}")]
        rounds = horizon - 1
        entries = {e["seed"]: e for e in report["seeds"]}
        failures: list[Failure] = []
        tables: dict[int, np.ndarray] = {}
        for seed in seeds:
            header, table = read_csv(out_dir / f"seed-{seed}.csv")
            tables[seed] = table
            seed_failures = check_seed_file(seed, header, table, rounds, regret)
            if not seed_failures and (regret or traces):
                data = self.round_data(config, seed)
                if regret:
                    seed_failures += check_comparator(seed, entries[seed], table, data, config)
                if traces:
                    seed_failures += check_trace(seed, traces[seed], table, data, config,
                                                 sample_rounds)
            failures += seed_failures
        header, averaged = read_csv(out_dir / "seed-averaged.csv")
        if header != CSV_COLUMNS:
            failures.append(Failure(None, "csv_header", f"seed-averaged.csv header {header}"))
        else:
            failures += check_seed_average(tables, averaged, seeds)
        return failures


def sample_round_list(rng, rounds: int, count: int = 8) -> list[int]:
    """Sorted sample of distinct rounds in 1..rounds, always including the last."""
    picks = set(rng.sample(range(1, rounds + 1), min(count - 1, rounds)))
    picks.add(rounds)
    return sorted(picks)
