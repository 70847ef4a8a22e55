"""The benchmark's traced run wraps package functions by the names its callers
look them up by (perfbench/child.py, TRACED). A rename or a changed lookup
must fail here, not later inside a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from banditpd import cli
from banditpd.engine import run_horizon
from banditpd.network import GraphSchedule
from banditpd.problems import RegressionProblemSpec
from banditpd.schedule import ScheduleParams

CHILD_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines TRACED and helpers; main() is not run
    return module


CHILD = load_child()


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
    assert calls["geometry.project_scaled"] == n * rounds
    # drawn once, by the engine; the metrics pass reads the trace
    assert calls["problems.materialize"] == n * rounds


def test_child_digest_matches_run_trace_digest():
    trace = run_horizon(
        12,
        RegressionProblemSpec(n=3, p=2, q_i=1, m_i=1, halfwidth=2.0, b_offset=0.1, seed=4),
        ScheduleParams(mode="theorem1", gamma0=0.1, c=0.5, r_X=2.0, theorem_compliant=False),
        GraphSchedule(n=3, edge_prob=0.5, backbone=True, seed=4))
    assert trace.rounds == 11 and np.any(trace.x_hist != 0.0)
    assert CHILD.trace_digest(trace) == trace.digest()
