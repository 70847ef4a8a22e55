"""The benchmark's traced run wraps package functions by the names its callers
look them up by (perfbench/child.py, TRACED). A rename or a changed lookup
must fail here, not later inside a traced benchmark run. The benchmark's
checks computed apart from the program (perfbench/checks.py) run here too,
on a short CLI run of every preset and on random configs from the whole
config space."""

import contextlib
import importlib.util
import io
import json
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from banditpd import cli
from banditpd.engine import TRACE_ARRAYS, run_horizon
from banditpd.network import GraphSchedule
from banditpd.problems import RegressionProblemSpec
from banditpd.schedule import ScheduleParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)  # defines names only; no main() is run
    return module


CHILD = load_perfbench("child")
CHECKS = load_perfbench("checks")


@pytest.mark.parametrize("owner_path, attr, span", CHILD.TRACED,
                         ids=[span for _owner, _attr, span in CHILD.TRACED])
def test_traced_attribute_resolves_to_a_callable(owner_path, attr, span):
    owner = CHILD._owner(owner_path)
    assert callable(getattr(owner, attr, None)), f"{span}: {owner_path}.{attr} is gone"


def test_wrapped_names_see_every_call(tmp_path, monkeypatch):
    # Wrap every traced name as the benchmark does and check the per-round
    # layers count exactly what one CLI run executes.
    spans = CHILD.SpanStats()
    for owner_path, attr, span in CHILD.TRACED:
        owner = CHILD._owner(owner_path)
        monkeypatch.setattr(owner, attr, spans.wrap(span, getattr(owner, attr)))
    T, n = 25, 10
    assert cli.main(["--preset", "desk-convex-c05", "--horizon", str(T), "--seed-list", "3",
                     "--no-regret", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    calls = {name: s["calls"] for name, s in spans.as_dict().items()}
    rounds = T - 1
    assert calls["engine.run_horizon"] == 1
    assert calls["engine.run_round"] == rounds
    assert calls["network.generate_round_graph"] == rounds
    assert calls["network.build_mixing"] == rounds
    assert calls["oracle.sample_unit_sphere"] == n * rounds
    assert calls["geometry.project_scaled"] == rounds  # once per round, on all agents' rows
    # drawn once, by the engine; the metrics pass reads the trace
    assert calls["problems.materialize"] == n * rounds


def test_child_digest_matches_run_trace_digest():
    trace = run_horizon(
        12,
        RegressionProblemSpec(n=3, p=2, q_i=1, m_i=1, halfwidth=2.0, b_offset=0.1, seed=4),
        ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=2.0),
        GraphSchedule(n=3, edge_prob=0.5, backbone=True, seed=4))
    assert trace.rounds == 11 and np.any(trace.x_hist != 0.0)
    assert CHILD.trace_digest(trace) == trace.digest()


def keeping_traces(traces):
    """cli.run_horizon that stores each seed's TRACE_ARRAYS in traces."""
    real_run_horizon = cli.run_horizon

    def keeping_run_horizon(T, spec, *args, **kwargs):
        trace = real_run_horizon(T, spec, *args, **kwargs)
        traces[spec.seed] = {name: getattr(trace, name) for name in TRACE_ARRAYS}
        return trace

    return keeping_run_horizon


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_independent_checks_pass_on_each_preset(tmp_path, monkeypatch, preset):
    # The CLI outputs of two seeds, and the trace arrays run_horizon returned
    # for them, against perfbench's recomputation from the round data.
    horizon, seeds = (100 if preset == "paper-sec4" else 200), [101, 102]
    traces = {}
    monkeypatch.setattr(cli, "run_horizon", keeping_traces(traces))
    out = tmp_path / "out"
    assert cli.main(["--preset", preset, "--horizon", str(horizon), "--seed-list", "101,102",
                     "--out", str(out)]) == cli.EXIT_OK
    regret = cli.parse_config(preset=preset).values["run"]["regret"]
    failures = CHECKS.RunChecker().check(
        out, seeds, horizon, regret, traces=traces,
        sample_rounds=CHECKS.sample_round_list(random.Random(0), horizon - 1))
    assert sorted(traces) == seeds
    assert not failures, [str(f) for f in failures]


def test_singular_loss_matrix_certifies_through_the_cli(tmp_path):
    # One agent with one loss row and no ridge term: the summed loss matrix
    # over three rounds has rank 3 < p = 5, so the comparator takes its
    # proximal path; perfbench's KKT and regret-identity checks must pass.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"problem": {"n": 1, "p": 5, "q_i": 1, "m_i": 2, "mu_reg": 0.0},
         "schedule": {"mode": "theorem1", "c": 0.5},
         "run": {"horizon": 4, "seeds": [101, 102, 103]}}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [e["comparator"]["converged"] for e in report["seeds"]] == [True] * 3
    failures = CHECKS.RunChecker().check(out, [101, 102, 103], 4, True)
    assert not failures, [str(f) for f in failures]


SCHEDULE_MODES = st.sampled_from([
    {"mode": "theorem1", "c": 0.25}, {"mode": "theorem1", "c": 0.5},
    {"mode": "theorem1", "c": 0.75}, {"mode": "theorem4", "mu": 0.5},
    {"mode": "theorem4", "mu": 1.0}, {"mode": "theorem4", "mu": 3.0},
    {"mode": "custom", "overrides": {"alpha_scale": 0.5, "alpha_exponent": 0.5,
                                     "xi_scale": 0.5, "delta_scale": 0.1}},
    {"mode": "custom", "overrides": {}},
])


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 7]), p=st.sampled_from([1, 2, 3, 6]),
       q_i=st.sampled_from([1, 2, 4]), m_i=st.sampled_from([1, 2, 5]),
       mu_reg=st.sampled_from([0.0, 0.5]), schedule=SCHEDULE_MODES,
       gamma0=st.sampled_from([None, 0.5, 20.0]), compliant=st.booleans(),
       variant=st.sampled_from(cli.VARIANTS), init_rule=st.sampled_from(["zeros", "uniform"]),
       edge_prob=st.sampled_from([0.0, 0.3, 1.0]), horizon=st.integers(2, 60),
       regret=st.booleans(), seeds=st.sampled_from([[1], [7, 3]]))
def test_independent_checks_hold_over_the_config_space(
        tmp_path_factory, n, p, q_i, m_i, mu_reg, schedule, gamma0, compliant, variant,
        init_rule, edge_prob, horizon, regret, seeds):
    # A gain above the compliant ceiling is a config error unless theorem_compliant
    # is false; a run that passes its config check either exits 0 with outputs
    # that meet perfbench's checks, or stops at a named round and agent.
    config = {"problem": {"n": n, "p": p, "q_i": q_i, "m_i": m_i, "mu_reg": mu_reg},
              "schedule": {**schedule, "gamma0": gamma0, "theorem_compliant": compliant},
              "graph": {"edge_prob": edge_prob},
              "run": {"horizon": horizon, "seeds": seeds, "variant": variant,
                      "init_rule": init_rule, "regret": regret}}
    work = tmp_path_factory.mktemp("config")
    (work / "cfg.json").write_text(json.dumps(config))
    traces, stderr = {}, io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr):
        patch.setattr(cli, "run_horizon", keeping_traces(traces))
        code = cli.main(["--config", str(work / "cfg.json"), "--out", str(work / "out")])
    message = stderr.getvalue()
    event(f"exit {code}")
    if code == cli.EXIT_CONFIG:
        assert re.fullmatch(r"config error: (problem|schedule|graph|run)(\.\w+)*[:= ].*\n", message)
        return
    if code == cli.EXIT_INVARIANT:
        assert re.fullmatch(r"invariant violation: .* at t=\d+, agent \d+\n", message)
        return
    assert code == cli.EXIT_OK, message
    failures = CHECKS.RunChecker().check(
        work / "out", seeds, horizon, regret, traces=traces,
        sample_rounds=CHECKS.sample_round_list(random.Random(0), horizon - 1))
    assert not failures, [str(f) for f in failures]
