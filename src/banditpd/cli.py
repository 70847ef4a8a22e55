"""Config-driven experiment runner.

A run is: for each seed, simulate the full horizon, stream the metrics pass,
optionally solve the offline comparator, then write per-seed CSVs, a
seed-averaged CSV, and a JSON report with fitted slopes and the matching
theoretical exponents. Everything is deterministic given the config, so two
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .engine import VARIANTS, InvariantViolation, RunConfig, run_horizon
from .metrics import (
    ComparatorOptions,
    MetricSeries,
    cumulative_loss,
    envelope_exponent,
    envelope_ids_for_mode,
    evaluate_trace,
    fit_loglog_slope,
    log_checkpoints,
    network_ccv,
    network_regret,
    solve_offline_comparator,
)
from .network import GraphSchedule
from .problems import RegressionProblemSpec, compute_bounds
from .schedule import (
    MODES,
    ScheduleOverrides,
    ScheduleParams,
    check_gamma0_compliance,
    default_gamma0,
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

_SECTIONS = {
    "problem": {"n", "p", "q_i", "m_i", "halfwidth", "b_offset", "mu_reg"},
    "schedule": {"mode", "c", "gamma0", "mu", "theorem_compliant", "overrides"},
    "graph": {"edge_prob", "backbone"},
    "run": {"horizon", "seeds", "variant", "out", "regret", "check_invariants",
            "tail_fraction", "init_rule", "comparator"},
}
_OVERRIDE_KEYS = {"alpha_scale", "alpha_exponent", "xi_scale", "delta_scale"}
_COMPARATOR_KEYS = {"tol", "max_iter"}


@dataclass
class ExperimentConfig:
    """Fully resolved and validated inputs for run_experiment."""

    n: int
    p: int
    q_i: int
    m_i: int
    halfwidth: float
    b_offset: float
    mu_reg: float
    schedule: ScheduleParams
    edge_prob: float
    backbone: bool
    horizon: int
    seeds: tuple[int, ...]
    variant: str
    out: str
    regret: bool
    check_invariants: str
    tail_fraction: float
    init_rule: str
    comparator: ComparatorOptions

    def problem_spec(self, seed: int) -> RegressionProblemSpec:
        return RegressionProblemSpec(n=self.n, p=self.p, q_i=self.q_i, m_i=self.m_i,
                                     halfwidth=self.halfwidth, b_offset=self.b_offset,
                                     seed=seed, mu_reg=self.mu_reg)

    def graph_schedule(self, seed: int) -> GraphSchedule:
        return GraphSchedule(n=self.n, edge_prob=self.edge_prob,
                             backbone=self.backbone, seed=seed)

    def to_dict(self) -> dict:
        sched = self.schedule
        return {
            "problem": {"n": self.n, "p": self.p, "q_i": self.q_i, "m_i": self.m_i,
                        "halfwidth": self.halfwidth, "b_offset": self.b_offset,
                        "mu_reg": self.mu_reg},
            # r_X is not emitted: it is always derived from problem.halfwidth
            "schedule": {"mode": sched.mode, "c": sched.c, "gamma0": sched.gamma0,
                         "mu": sched.mu,
                         "theorem_compliant": sched.theorem_compliant,
                         "overrides": vars(sched.overrides) if sched.overrides else None},
            "graph": {"edge_prob": self.edge_prob, "backbone": self.backbone},
            "run": {"horizon": self.horizon, "seeds": list(self.seeds),
                    "variant": self.variant, "out": self.out, "regret": self.regret,
                    "check_invariants": self.check_invariants,
                    "tail_fraction": self.tail_fraction, "init_rule": self.init_rule,
                    "comparator": {"tol": self.comparator.tol,
                                   "max_iter": self.comparator.max_iter}},
        }


def _check_known_keys(raw: dict) -> None:
    for section, body in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key in body:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    overrides = raw.get("schedule", {}).get("overrides")
    if overrides is not None:
        for key in overrides:
            if key not in _OVERRIDE_KEYS:
                raise ConfigError(f"unknown key schedule.overrides.{key}")
    comparator = raw.get("run", {}).get("comparator")
    if comparator is not None:
        for key in comparator:
            if key not in _COMPARATOR_KEYS:
                raise ConfigError(f"unknown key run.comparator.{key}")


def _get(raw: dict, section: str, key: str, default, kind, required=False):
    body = raw.get(section, {})
    if key not in body or body[key] is None:
        if required:
            raise ConfigError(f"missing required key {section}.{key}")
        return default
    value = body[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{section}.{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill every default."""
    _check_known_keys(raw)

    n = _get(raw, "problem", "n", None, int, required=True)
    p = _get(raw, "problem", "p", None, int, required=True)
    q_i = _get(raw, "problem", "q_i", 1, int)
    m_i = _get(raw, "problem", "m_i", None, int, required=True)
    halfwidth = _get(raw, "problem", "halfwidth", 5.0, float)
    b_offset = _get(raw, "problem", "b_offset", 0.01, float)
    mu_reg = _get(raw, "problem", "mu_reg", 0.0, float)

    horizon = _get(raw, "run", "horizon", None, int, required=True)
    if horizon < 1:
        raise ConfigError("run.horizon must be >= 1")
    seeds = _get(raw, "run", "seeds", None, list, required=True)
    if not seeds:
        raise ConfigError("run.seeds must be a nonempty list")
    if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds):
        raise ConfigError("run.seeds must be nonnegative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("run.seeds contains duplicates")
    variant = _get(raw, "run", "variant", "paper", str)
    if variant not in VARIANTS:
        raise ConfigError(f"run.variant must be one of {VARIANTS}")
    out = _get(raw, "run", "out", "runs/out", str)
    regret = _get(raw, "run", "regret", True, bool)
    check = _get(raw, "run", "check_invariants", "strict", str)
    if check not in ("strict", "off"):
        raise ConfigError("run.check_invariants must be 'strict' or 'off'")
    tail_fraction = _get(raw, "run", "tail_fraction", 0.5, float)
    if not (0.0 < tail_fraction <= 1.0):
        raise ConfigError("run.tail_fraction must be in (0, 1]")
    init_rule = _get(raw, "run", "init_rule", "zeros", str)
    if init_rule not in ("zeros", "uniform"):
        raise ConfigError("run.init_rule must be 'zeros' or 'uniform'")
    comp_raw = raw.get("run", {}).get("comparator") or {}
    comparator = ComparatorOptions(tol=float(comp_raw.get("tol", 1e-6)),
                                   max_iter=int(comp_raw.get("max_iter", 100_000)))

    mode = _get(raw, "schedule", "mode", None, str, required=True)
    if mode not in MODES:
        raise ConfigError(f"schedule.mode must be one of {MODES}")
    c = _get(raw, "schedule", "c", 0.5, float)
    mu = _get(raw, "schedule", "mu", None, float)
    theorem_compliant = _get(raw, "schedule", "theorem_compliant", True, bool)
    overrides_raw = raw.get("schedule", {}).get("overrides")
    overrides = None
    if overrides_raw is not None:
        overrides = ScheduleOverrides(**{k: float(v) for k, v in overrides_raw.items()})

    try:
        spec_probe = RegressionProblemSpec(n=n, p=p, q_i=q_i, m_i=m_i,
                                           halfwidth=halfwidth, b_offset=b_offset,
                                           seed=int(seeds[0]), mu_reg=mu_reg)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    bounds = compute_bounds(spec_probe, horizon)

    gamma0 = _get(raw, "schedule", "gamma0", None, float)
    if gamma0 is None:
        gamma0 = default_gamma0(p, bounds.G2)
    try:
        schedule = ScheduleParams(mode=mode, gamma0=gamma0, c=c, mu=mu,
                                  r_X=halfwidth, overrides=overrides,
                                  theorem_compliant=theorem_compliant)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    if theorem_compliant and mode in ("theorem1", "theorem4"):
        if not check_gamma0_compliance(schedule, p, bounds.G2):
            raise ConfigError(
                f"schedule.gamma0={gamma0} exceeds the compliant ceiling "
                f"{default_gamma0(p, bounds.G2)}; set theorem_compliant false to force")

    edge_prob = _get(raw, "graph", "edge_prob", 0.0, float)
    backbone = _get(raw, "graph", "backbone", True, bool)
    try:
        config = ExperimentConfig(
            n=n, p=p, q_i=q_i, m_i=m_i, halfwidth=halfwidth, b_offset=b_offset,
            mu_reg=mu_reg, schedule=schedule, edge_prob=edge_prob,
            backbone=backbone, horizon=horizon,
            seeds=tuple(int(s) for s in seeds), variant=variant, out=out,
            regret=regret, check_invariants=check, tail_fraction=tail_fraction,
            init_rule=init_rule, comparator=comparator,
        )
        config.graph_schedule(config.seeds[0])  # triggers graph validation
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


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


@dataclass
class SeedOutcome:
    seed: int
    fingerprint: str
    trace_digest: str
    invariant_counters: dict[str, int]
    checkpoints: np.ndarray
    net_regret: np.ndarray
    net_ccv: np.ndarray
    cum_loss: np.ndarray
    mean_step: np.ndarray
    mean_dual: np.ndarray
    comparator: dict | None


class ComparatorFailure(RuntimeError):
    pass


def _run_seed(config: ExperimentConfig, seed: int) -> SeedOutcome:
    spec = config.problem_spec(seed)
    bounds = compute_bounds(spec, config.horizon)
    run_cfg = RunConfig(
        problem=spec, schedule=config.schedule, graph=config.graph_schedule(seed),
        variant=config.variant, init_rule=config.init_rule,
        check_invariants=config.check_invariants, bounds=bounds,
    )
    trace = run_horizon(config.horizon, run_cfg)
    rounds = trace.rounds
    checkpoints = log_checkpoints(rounds)
    empty = np.array([])
    if rounds == 0:
        return SeedOutcome(seed, trace.fingerprint(), trace.digest(), trace.invariant_counters,
                           checkpoints, empty, empty, empty, empty, empty, None)

    ev = evaluate_trace(trace)
    ccv = network_ccv(trace, ev).select(checkpoints).values
    loss = cumulative_loss(trace, ev).select(checkpoints).values
    idx = checkpoints - 1
    mean_step = trace.step_norm[idx].mean(axis=1)
    mean_dual = trace.dual_norm[idx].mean(axis=1)

    comparator_info = None
    regret = np.full(checkpoints.size, np.nan)
    if config.regret:
        comp = solve_offline_comparator(spec, rounds, config.comparator, evaluation=ev)
        comparator_info = {
            "converged": comp.converged,
            "objective": comp.objective,
            "max_violation": comp.max_violation,
            "x_star": [float(v) for v in comp.x_star],
        }
        if not comp.converged:
            raise ComparatorFailure(
                f"comparator did not converge for seed {seed} "
                f"(max_violation={comp.max_violation:.3g})")
        regret = network_regret(trace, comp, ev).select(checkpoints).values

    return SeedOutcome(seed, trace.fingerprint(), trace.digest(), trace.invariant_counters,
                       checkpoints, regret, ccv, loss, mean_step, mean_dual,
                       comparator_info)


def _fit_or_error(series: MetricSeries, tail_fraction: float):
    try:
        return fit_loglog_slope(series, tail_fraction)
    except ValueError as exc:
        return {"error": str(exc)}


def run_experiment(config: ExperimentConfig) -> int:
    """Run all seeds, write outputs under config.out, return an exit code."""
    try:
        outcomes = [_run_seed(config, s) for s in config.seeds]
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ComparatorFailure as exc:
        print(f"comparator failure: {exc}", file=sys.stderr)
        return EXIT_COMPARATOR

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for oc in outcomes:
        lines = _csv_lines(oc.checkpoints, oc.net_regret, oc.net_ccv,
                           oc.cum_loss, oc.mean_step, oc.mean_dual)
        (out_dir / f"seed-{oc.seed}.csv").write_text("\n".join(lines) + "\n")

    checkpoints = outcomes[0].checkpoints

    def seed_mean(attr):
        if not checkpoints.size:
            return np.array([])
        return np.array([getattr(oc, attr) for oc in outcomes]).mean(axis=0)

    avg_regret = seed_mean("net_regret")
    avg_ccv = seed_mean("net_ccv")
    avg_loss = seed_mean("cum_loss")
    avg_step = seed_mean("mean_step")
    avg_dual = seed_mean("mean_dual")
    lines = _csv_lines(checkpoints, avg_regret, avg_ccv, avg_loss, avg_step, avg_dual)
    (out_dir / "seed-averaged.csv").write_text("\n".join(lines) + "\n")

    slopes: dict[str, object] = {"tail_fraction": config.tail_fraction}
    if checkpoints.size:
        slopes["net_ccv"] = _fit_or_error(MetricSeries(checkpoints, avg_ccv),
                                          config.tail_fraction)
        slopes["cum_loss"] = _fit_or_error(MetricSeries(checkpoints, avg_loss),
                                           config.tail_fraction)
        if config.regret:
            slopes["net_regret"] = _fit_or_error(MetricSeries(checkpoints, avg_regret),
                                                 config.tail_fraction)
        else:
            slopes["net_regret"] = None
    ids = envelope_ids_for_mode(config.schedule.mode)
    exponents = {}
    for eid in ids:
        exp = envelope_exponent(eid, config.schedule.c)
        exponents[eid] = exp if exp is not None else ("sqrt(T log T)" if eid == "T4-ccv" else "log(T)")

    totals: dict[str, int] = {}
    for oc in outcomes:
        for name, count in oc.invariant_counters.items():
            totals[name] = totals.get(name, 0) + count

    report = {
        "version": __version__,
        "config": config.to_dict(),
        "slopes": slopes,
        "rate_envelopes": exponents,
        "invariant_violations": totals,
        "seeds": [
            {"seed": oc.seed, "fingerprint": oc.fingerprint,
             "trace_digest": oc.trace_digest,
             "invariant_counters": oc.invariant_counters,
             "comparator": oc.comparator}
            for oc in outcomes
        ],
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
    parser.add_argument("--check-invariants", choices=["strict", "off"])
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
    if args.check_invariants is not None:
        overrides["run"]["check_invariants"] = args.check_invariants

    try:
        config = parse_config(args.config, args.preset, overrides)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
