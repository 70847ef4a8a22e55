"""Metamorphic relations between runs: properties that tie one run's output to
another's, bit for bit, whatever the trajectory itself is. They hold for any
summation order or draw scheme that keeps the rounds causal and the agents'
streams separate, so they stay valid across changes that re-pin the golden
digests."""

import numpy as np

from banditpd.cli import parse_config, simulate
from banditpd.engine import TRACE_ARRAYS, run_horizon

SEED = 101
SERIES = ("net_ccv", "cum_loss", "mean_step", "mean_dual")


def config(preset, horizon, **sections):
    run = {"horizon": horizon, "seeds": [SEED], "regret": False, **sections.pop("run", {})}
    return parse_config(preset=preset, overrides={**sections, "run": run})


def trace_of(cfg):
    run = cfg.values["run"]
    return run_horizon(cfg.horizon, cfg.problem_spec(SEED), cfg.schedule,
                       cfg.graph_schedule(SEED), run["variant"], run["init_rule"])


def test_shorter_horizon_is_a_prefix():
    # Round t reads only rounds before it, so the T=201 run is the first 200
    # rounds of the T=301 run.
    short, long = config("desk-convex-c05", 201), config("desk-convex-c05", 301)
    a, b = trace_of(short), trace_of(long)
    assert a.rounds == 200 and b.rounds == 300
    for name in TRACE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)[:200]), name
    sa, sb = simulate(short, SEED), simulate(long, SEED)
    for name in SERIES:
        assert np.array_equal(sa[name], sb[name][:200]), name


def test_variants_agree_when_no_constraint_binds():
    # With b_offset 100 every constraint value stays negative, so the dual is
    # zero and clipping the Jacobian's inputs changes nothing.
    digests = {variant: simulate(config("desk-convex-c05", 300,
                                        problem={"b_offset": 100.0},
                                        run={"variant": variant}), SEED)["trace_digest"]
               for variant in ("paper", "clipped-primal")}
    assert digests["paper"] == digests["clipped-primal"]


def test_agent_without_neighbours_runs_alone():
    # With no edges the mixing matrix is the identity, and agent 1's problem
    # data and directions come from its own streams, so it follows the same
    # trajectory in a network of ten as on its own.
    alone = {"graph": {"edge_prob": 0.0, "backbone": False}}
    one = trace_of(config("desk-convex-c05", 200, problem={"n": 1}, **alone))
    ten = trace_of(config("desk-convex-c05", 200, problem={"n": 10}, **alone))
    for name in TRACE_ARRAYS:
        assert np.array_equal(getattr(ten, name)[:, :1], getattr(one, name)), name
