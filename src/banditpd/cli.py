"""Config-driven experiment runner.

A run is: for each seed, simulate(config, seed) runs the full horizon, the
metrics pass and optionally the offline comparator; then run_experiment writes
per-seed CSVs, a seed-averaged CSV, and a JSON report with fitted slopes and
the matching theoretical exponents. Everything is deterministic given the
config, so two invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .engine import VARIANTS, InvariantViolation, run_horizon
from .metrics import (
    evaluate_trace,
    fit_loglog_slope,
    log_checkpoints,
    network_regret,
    solve_offline_comparator,
)
from .network import GraphSchedule
from .problems import RegressionProblemSpec, compute_bounds
from .schedule import (
    ScheduleOverrides,
    ScheduleParams,
    check_gamma0_compliance,
    default_gamma0,
    rate_envelopes,
    round_params,
)

CSV_COLUMNS = ("T", "net_regret", "net_ccv", "cum_loss", "mean_step_norm", "mean_dual_norm")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_COMPARATOR = 3


class ConfigError(ValueError):
    """Invalid or unknown configuration; the message names the key path."""


# ---------------------------------------------------------------------------
# Presets

def _desk_problem(**extra):
    base = {"n": 10, "p": 5, "q_i": 2, "m_i": 2, "halfwidth": 5.0,
            "b_offset": 0.01, "mu_reg": 0.0}
    base.update(extra)
    return base


PRESETS: dict[str, dict] = {
    # Table-II-style replication input: large network, per-step schedule
    # alpha=1/t, gamma0=0.15, xi=1/t, delta=0.01/t. Regret is off by default
    # at this scale; cumulative loss is the headline quantity.
    "paper-sec4": {
        "problem": {"n": 100, "p": 10, "q_i": 4, "m_i": 2, "halfwidth": 5.0,
                    "b_offset": 0.01, "mu_reg": 0.0},
        "schedule": {"mode": "custom", "gamma0": 0.15, "theorem_compliant": False,
                     "overrides": {"alpha_scale": 1.0, "alpha_exponent": 1.0,
                                   "xi_scale": 1.0, "delta_scale": 0.01}},
        "graph": {"edge_prob": 0.1, "backbone": True},
        "run": {"horizon": 1000, "seeds": [101, 102, 103, 104, 105],
                "regret": False},
    },
    "desk-convex-c05": {
        "problem": _desk_problem(),
        "schedule": {"mode": "theorem1", "c": 0.5},
        "graph": {"edge_prob": 0.3, "backbone": True},
        "run": {"horizon": 2000, "seeds": [101, 102, 103]},
    },
    "desk-strongly-convex-t4": {
        "problem": _desk_problem(mu_reg=1.0),
        "schedule": {"mode": "theorem4", "mu": 1.0},
        "graph": {"edge_prob": 0.3, "backbone": True},
        "run": {"horizon": 2000, "seeds": [101, 102, 103, 104, 105]},
    },
    # desk-convex-c05 with the constraint offsets pushed out, enlarging the
    # interior margin of the feasible set.
    "desk-slater-margin-sweep": {
        "problem": _desk_problem(b_offset=1.0),
        "schedule": {"mode": "theorem1", "c": 0.5},
        "graph": {"edge_prob": 0.3, "backbone": True},
        "run": {"horizon": 2000, "seeds": [101, 102, 103, 104, 105]},
    },
}


# ---------------------------------------------------------------------------
# Config schema and resolution

_REQUIRED = object()


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {tuple(choices)}")


def _valid_seeds(seeds) -> bool:
    return (bool(seeds) and len(set(seeds)) == len(seeds)
            and all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds))


# The whole config schema, one row per key: (section, key, type, default,
# check). It rejects unknown keys, fills defaults, checks types, and its
# resolved values are what report.json echoes. A float key takes an int and
# must be finite; a bool is never a number; null means the default. A dict row
# names a nested section whose rows follow; a null default leaves it null.
# `check` is (predicate, message) for ranges no dataclass checks: problem,
# graph and schedule values are validated by the dataclasses they build, and
# the schedule also by the round check in resolve_config.
CONFIG_KEYS = (
    ("problem", "n", int, _REQUIRED, None),
    ("problem", "p", int, _REQUIRED, None),
    ("problem", "q_i", int, 1, None),
    ("problem", "m_i", int, _REQUIRED, None),
    ("problem", "halfwidth", float, 5.0, None),
    ("problem", "b_offset", float, 0.01, None),
    ("problem", "mu_reg", float, 0.0, None),
    ("schedule", "mode", str, _REQUIRED, None),
    ("schedule", "c", float, 0.5, None),
    ("schedule", "gamma0", float, None, None),  # null: the compliant default from G2
    ("schedule", "mu", float, None, None),
    ("schedule", "theorem_compliant", bool, True, None),
    ("schedule", "overrides", dict, None, None),
    ("schedule.overrides", "alpha_scale", float, ScheduleOverrides.alpha_scale, None),
    ("schedule.overrides", "alpha_exponent", float, ScheduleOverrides.alpha_exponent,
     (lambda v: v >= 0, "must be >= 0")),  # a negative exponent grows every sequence
    ("schedule.overrides", "xi_scale", float, ScheduleOverrides.xi_scale, None),
    ("schedule.overrides", "delta_scale", float, ScheduleOverrides.delta_scale, None),
    ("graph", "edge_prob", float, 0.0, None),
    ("graph", "backbone", bool, True, None),
    ("run", "horizon", int, _REQUIRED, (lambda v: v >= 1, "must be >= 1")),
    ("run", "seeds", list, _REQUIRED,
     (_valid_seeds, "must be a nonempty list of distinct nonnegative integers")),
    ("run", "variant", str, "paper", _one_of(VARIANTS)),
    ("run", "out", str, "runs/out", None),
    ("run", "regret", bool, True, None),
    ("run", "tail_fraction", float, 0.5, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
    ("run", "init_rule", str, "zeros", _one_of(("zeros", "uniform"))),
)

_ROWS: dict[str, dict[str, tuple]] = {}
for _section, _key, *_row in CONFIG_KEYS:
    _ROWS.setdefault(_section, {})[_key] = tuple(_row)
_TOP_SECTIONS = tuple(s for s in _ROWS if "." not in s)


@dataclass
class ExperimentConfig:
    """Fully resolved and validated inputs for run_experiment.

    values maps each section of CONFIG_KEYS to its resolved keys; schedule is
    built from values["schedule"] and problem.halfwidth.
    """

    values: dict
    schedule: ScheduleParams

    @property
    def horizon(self) -> int:
        return self.values["run"]["horizon"]

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.values["run"]["seeds"])

    def problem_spec(self, seed: int) -> RegressionProblemSpec:
        return RegressionProblemSpec(**self.values["problem"], seed=seed)

    def graph_schedule(self, seed: int) -> GraphSchedule:
        return GraphSchedule(n=self.values["problem"]["n"], **self.values["graph"], seed=seed)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.values)


def _check_value(path: str, kind, value, check):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{path} must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value}")
    if check is not None and not check[0](value):
        raise ConfigError(f"{path} {check[1]}")
    return value


def _resolve_section(section: str, body) -> dict:
    """One section's resolved keys, by the rows of CONFIG_KEYS."""
    if not isinstance(body, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    rows = _ROWS[section]
    for key in body:
        if key not in rows:
            raise ConfigError(f"unknown key {section}.{key}")
    values = {}
    for key, (kind, default, check) in rows.items():
        path = f"{section}.{key}"
        value = body.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {path}")
            value = default
        elif kind is not dict:
            value = _check_value(path, kind, value, check)
        if kind is dict and value is not None:
            value = _resolve_section(path, value)
        values[key] = value
    return values


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill every default."""
    for section in raw:
        if section not in _TOP_SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
    values = {s: _resolve_section(s, {} if raw.get(s) is None else raw[s])
              for s in _TOP_SECTIONS}
    problem, sched, run = values["problem"], values["schedule"], values["run"]

    try:
        spec = RegressionProblemSpec(**problem, seed=run["seeds"][0])
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    try:
        G2 = compute_bounds(spec).G2
    except ValueError as exc:  # the message starts with the field that overflowed
        raise ConfigError(f"problem.{exc}") from exc
    try:
        GraphSchedule(n=problem["n"], **values["graph"], seed=run["seeds"][0])
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc

    if sched["gamma0"] is None:
        sched["gamma0"] = default_gamma0(problem["p"], G2)
    overrides = sched["overrides"]
    try:
        schedule = ScheduleParams(
            mode=sched["mode"], gamma0=sched["gamma0"], c=sched["c"], mu=sched["mu"],
            overrides=None if overrides is None else ScheduleOverrides(**overrides),
            r_X=problem["halfwidth"])
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    if sched["theorem_compliant"] and schedule.mode in ("theorem1", "theorem4"):
        if not check_gamma0_compliance(schedule, problem["p"], G2):
            raise ConfigError(
                f"schedule.gamma0={schedule.gamma0} exceeds the compliant ceiling "
                f"{default_gamma0(problem['p'], G2)}; set theorem_compliant false to force")

    # Rounds 1..horizon are evaluated. Every sequence is a fixed scale times
    # the one power s_t = t^-e, which falls with t, and each check of a round
    # (positive, finite, xi <= 1, delta <= r_X xi) is monotone in s_t: the
    # worst round is the first or the last.
    where = "schedule.overrides" if schedule.mode == "custom" else "schedule"
    for t in (1, run["horizon"]):
        try:
            round_params(schedule, t)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{where}: {exc} (round {t})") from exc
    return ExperimentConfig(values=values, schedule=schedule)


def parse_config(path: str | None = None, preset: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Assemble a config from a preset and/or JSON file, then flag overrides.

    File values override preset values; explicit overrides win over both.
    """
    if path is None and preset is None:
        raise ConfigError("need a preset name or a config file")
    raw: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        raw = json.loads(json.dumps(PRESETS[preset]))  # deep copy
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_raw, dict):
            raise ConfigError("config file must contain a JSON object")
        _deep_update(raw, file_raw)
    if overrides:
        _deep_update(raw, overrides)
    return resolve_config(raw)


# ---------------------------------------------------------------------------
# Running

def _fmt(value: float) -> str:
    return "%.17g" % value


def _csv_lines(checkpoints, regret, ccv, loss, step, dual) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for idx, T in enumerate(checkpoints):
        row = [str(int(T)), _fmt(regret[idx]), _fmt(ccv[idx]), _fmt(loss[idx]),
               _fmt(step[idx]), _fmt(dual[idx])]
        lines.append(",".join(row))
    return lines


class ComparatorFailure(RuntimeError):
    pass


def simulate(config: ExperimentConfig, seed: int) -> dict:
    """Run one seed of the config: the trace, its metrics pass and, when
    run.regret is on, the offline comparator. The trace is not kept.

    Returns the seed's trace_digest, its comparator certificate (None without
    regret) and per-round arrays over rounds 1..horizon-1: net_ccv, cum_loss,
    net_regret (nan without regret), and mean_step and mean_dual, the means
    over agents of the step and dual norms. Raises InvariantViolation when a
    round breaks an invariant, ComparatorFailure when the comparator does not
    certify its answer.
    """
    run = config.values["run"]
    trace = run_horizon(config.horizon, config.problem_spec(seed), config.schedule,
                        config.graph_schedule(seed), run["variant"], run["init_rule"])
    ev = evaluate_trace(trace)
    result = {"trace_digest": trace.digest(), "comparator": None,
              "mean_step": trace.step_norm.mean(axis=1),
              "mean_dual": trace.dual_norm.mean(axis=1),
              "net_ccv": np.cumsum(ev.ccv_inc), "cum_loss": np.cumsum(ev.mean_loss_inc),
              "net_regret": np.full(trace.rounds, np.nan)}
    if run["regret"] and trace.rounds:
        comp = solve_offline_comparator(ev)
        result["comparator"] = {
            "converged": comp.converged,
            "objective": comp.objective,
            "max_violation": comp.max_violation,
            "refinements": comp.refinements,
            "working_rows": comp.working_rows,
            "x_star": [float(v) for v in comp.x_star],
        }
        if not comp.converged:
            raise ComparatorFailure(
                f"comparator did not converge for seed {seed} "
                f"(max_violation={comp.max_violation:.3g})")
        result["net_regret"] = network_regret(ev, comp.x_star)
    return result


def _fit_or_error(horizons, values, tail_fraction: float):
    try:
        return fit_loglog_slope(horizons, values, tail_fraction)
    except ValueError as exc:
        return {"error": str(exc)}


def run_experiment(config: ExperimentConfig) -> int:
    """Run all seeds, write outputs under run.out, return an exit code."""
    run = config.values["run"]
    try:
        results = {seed: simulate(config, seed) for seed in config.seeds}
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ComparatorFailure as exc:
        print(f"comparator failure: {exc}", file=sys.stderr)
        return EXIT_COMPARATOR

    out_dir = Path(run["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    checkpoints = log_checkpoints(config.horizon - 1)
    idx = checkpoints - 1
    columns = ("net_regret", "net_ccv", "cum_loss", "mean_step", "mean_dual")
    for seed, res in results.items():
        lines = _csv_lines(checkpoints, *(res[col][idx] for col in columns))
        (out_dir / f"seed-{seed}.csv").write_text("\n".join(lines) + "\n")

    avg = {col: np.array([res[col][idx] for res in results.values()]).mean(axis=0)
           for col in columns}
    lines = _csv_lines(checkpoints, *(avg[col] for col in columns))
    (out_dir / "seed-averaged.csv").write_text("\n".join(lines) + "\n")

    tail_fraction = run["tail_fraction"]
    slopes: dict[str, object] = {"tail_fraction": tail_fraction}
    if checkpoints.size:
        slopes["net_ccv"] = _fit_or_error(checkpoints, avg["net_ccv"], tail_fraction)
        slopes["cum_loss"] = _fit_or_error(checkpoints, avg["cum_loss"], tail_fraction)
        slopes["net_regret"] = (_fit_or_error(checkpoints, avg["net_regret"], tail_fraction)
                                if run["regret"] else None)
    report = {
        "version": __version__,
        "config": config.to_dict(),
        "slopes": slopes,
        "rate_envelopes": rate_envelopes(config.schedule),
        "seeds": [{"seed": seed, "trace_digest": res["trace_digest"],
                   "comparator": res["comparator"]}
                  for seed, res in results.items()],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditpd",
        description="Distributed bandit primal-dual simulation runner")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--preset", metavar="NAME",
                        help=f"named preset: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--seed-list", metavar="CSV",
                        help="comma-separated seeds, overrides the config")
    parser.add_argument("--horizon", type=int, metavar="N")
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--variant", choices=list(VARIANTS))
    parser.add_argument("--no-regret", action="store_true",
                        help="skip the offline comparator and regret column")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    overrides: dict = {"run": {}}
    if args.seed_list is not None:
        try:
            seeds = [int(s) for s in args.seed_list.split(",") if s.strip()]
        except ValueError:
            print("config error: --seed-list must be comma-separated integers",
                  file=sys.stderr)
            return EXIT_CONFIG
        overrides["run"]["seeds"] = seeds
    if args.horizon is not None:
        overrides["run"]["horizon"] = args.horizon
    if args.out is not None:
        overrides["run"]["out"] = args.out
    if args.variant is not None:
        overrides["run"]["variant"] = args.variant
    if args.no_regret:
        overrides["run"]["regret"] = False

    try:
        config = parse_config(args.config, args.preset, overrides)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
