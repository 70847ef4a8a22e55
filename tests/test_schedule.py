import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditpd.cli import ConfigError, parse_config, resolve_config
from banditpd.schedule import (
    MODES,
    RoundParams,
    ScheduleOverrides,
    ScheduleParams,
    check_gamma0_compliance,
    default_gamma0,
    round_params,
)


def t1_params(gamma0=0.1, c=0.5, r_X=5.0):
    return ScheduleParams(mode="theorem1", gamma0=gamma0, c=c, r_X=r_X)


def test_modes_tuple():
    assert MODES == ("theorem1", "theorem4", "custom")


def test_theorem1_frozen_values():
    rp = round_params(t1_params(), 4)
    assert rp.alpha == 0.5
    assert rp.gamma == pytest.approx(0.2, abs=1e-15)
    assert rp.xi == 0.5
    assert rp.delta == 2.5


def test_theorem1_first_round_shrinks_everything():
    rp = round_params(t1_params(), 1)
    assert rp.alpha == 1.0
    assert rp.xi == 1.0
    assert rp.delta == 5.0


def test_theorem4_frozen_value():
    params = ScheduleParams(mode="theorem4", gamma0=0.1, mu=2.0, r_X=5.0)
    rp = round_params(params, 10)
    assert rp.alpha == pytest.approx(0.05)
    assert rp.xi == pytest.approx(0.05)
    assert rp.delta == pytest.approx(0.25)


def test_theorem4_xi_capped_at_one():
    # mu < 1 makes alpha_1 > 1; xi must cap so the shrunk set stays nonempty.
    params = ScheduleParams(mode="theorem4", gamma0=0.1, mu=0.25, r_X=2.0)
    rp = round_params(params, 1)
    assert rp.alpha == 4.0
    assert rp.xi == 1.0
    assert rp.delta == 2.0


def test_table2_preset_frozen_values():
    # the paper-sec4 preset carries the published schedule row
    config = parse_config(preset="paper-sec4")
    params = config.schedule
    assert params.mode == "custom"
    assert not config.values["schedule"]["theorem_compliant"]
    one = round_params(params, 1)
    assert (one.alpha, one.gamma, one.xi, one.delta) == (1.0, 0.15, 1.0, 0.01)
    ten = round_params(params, 10)
    assert ten.alpha == pytest.approx(0.1)
    assert ten.gamma == pytest.approx(1.5)
    assert ten.xi == pytest.approx(0.1)
    assert ten.delta == pytest.approx(0.001)


def test_default_gamma0_frozen():
    assert default_gamma0(1, 0.5) == 0.5
    assert default_gamma0(10, 1.0) == pytest.approx(0.0024752475247524753, abs=0)


def test_compliance_check():
    params = t1_params(gamma0=default_gamma0(5, 2.0))
    assert check_gamma0_compliance(params, 5, 2.0)
    loud = t1_params(gamma0=10 * default_gamma0(5, 2.0))
    assert not check_gamma0_compliance(loud, 5, 2.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        ScheduleParams(mode="theorem9", gamma0=0.1)
    with pytest.raises(ValueError):
        ScheduleParams(mode="theorem1", gamma0=0.1, c=1.0)
    with pytest.raises(ValueError):
        ScheduleParams(mode="theorem1", gamma0=-0.1, c=0.5)
    with pytest.raises(ValueError):
        ScheduleParams(mode="theorem4", gamma0=0.1)  # needs mu
    with pytest.raises(ValueError):
        ScheduleParams(mode="custom", gamma0=0.1)  # needs overrides
    with pytest.raises(ValueError):
        RoundParams(alpha=1.0, gamma=1.0, xi=1.5, delta=0.1)
    # the engine's dual and primal steps rely on gamma_t > 0 and alpha_t > 0
    with pytest.raises(ValueError):
        RoundParams(alpha=1.0, gamma=0.0, xi=0.5, delta=0.1)
    with pytest.raises(ValueError):
        RoundParams(alpha=0.0, gamma=1.0, xi=0.5, delta=0.1)
    # an overflowed dual scale is rejected, not carried into the round
    with pytest.raises(ValueError, match="finite"):
        RoundParams(alpha=1e-310, gamma=math.inf, xi=1e-310, delta=1e-312)


def test_round_params_dispatch():
    # each mode resolves once, at construction, to the scales (a, x, e, d) of
    # one power law; d is None where delta follows r_X * xi
    assert t1_params(c=0.3).scales == (1.0, 1.0, 0.3, None)
    assert ScheduleParams(mode="theorem4", gamma0=0.1, mu=4.0).scales == (0.25, 0.25, 1.0, None)
    overrides = ScheduleOverrides(alpha_scale=0.5, alpha_exponent=0.7, xi_scale=0.2,
                                  delta_scale=0.1)
    custom = ScheduleParams(mode="custom", gamma0=0.1, overrides=overrides)
    assert custom.scales == (0.5, 0.2, 0.7, 0.1)
    with pytest.raises(ValueError):
        round_params(t1_params(), 0)


def test_custom_delta_must_fit_shrunk_set():
    overrides = ScheduleOverrides(alpha_scale=1.0, alpha_exponent=1.0,
                                  xi_scale=1.0, delta_scale=3.0)
    params = ScheduleParams(mode="custom", gamma0=0.1, r_X=2.0,
                            overrides=overrides)
    with pytest.raises(ValueError):
        round_params(params, 1)


@given(st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=0.05, max_value=0.95))
def test_theorem1_identities(t, c):
    params = ScheduleParams(mode="theorem1", gamma0=0.07, c=c, r_X=3.0)
    rp = round_params(params, t)
    assert rp.alpha > 0 and rp.gamma > 0 and 0 < rp.xi <= 1 and rp.delta > 0
    # gamma * alpha returns gamma0 up to a few ulp.
    assert rp.gamma * rp.alpha == pytest.approx(0.07, rel=4 * np.finfo(float).eps)
    assert rp.alpha == pytest.approx(t ** (-c), rel=1e-15)
    # The probe radius never leaves the shrunk set's safety margin.
    assert rp.delta <= params.r_X * rp.xi * (1 + 1e-12)


@given(st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=0.1, max_value=50.0))
def test_theorem4_identities(t, mu):
    params = ScheduleParams(mode="theorem4", gamma0=0.02, mu=mu, r_X=4.0)
    rp = round_params(params, t)
    assert rp.alpha == pytest.approx(1.0 / (mu * t), rel=1e-15)
    assert rp.xi == min(rp.alpha, 1.0)
    assert rp.delta == pytest.approx(params.r_X * rp.xi, rel=1e-15)
    assert rp.gamma * rp.alpha == pytest.approx(0.02, rel=4 * np.finfo(float).eps)


def test_schedules_decrease():
    params = t1_params(c=0.3)
    alphas = [round_params(params, t).alpha for t in range(1, 200)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert math.isclose(alphas[0], 1.0)


@given(st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=20.0))
def test_theorem1_is_a_custom_schedule(t, c, r_X):
    # bit for bit in all four fields: custom with scales (a, x, e, d) = (1, 1, c, r_X)
    theorem = ScheduleParams(mode="theorem1", gamma0=0.07, c=c, r_X=r_X)
    custom = ScheduleParams(mode="custom", gamma0=0.07, r_X=r_X, overrides=ScheduleOverrides(
        alpha_scale=1.0, alpha_exponent=c, xi_scale=1.0, delta_scale=r_X))
    assert round_params(theorem, t) == round_params(custom, t)


@given(st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=0.1, max_value=50.0))
def test_theorem4_is_a_custom_schedule(t, mu):
    # bit for bit in alpha, gamma and xi: custom with (a, x, e) = (1/mu, 1/mu, 1);
    # a delta scale half the largest one allowed keeps the custom probe in the set
    r_X = 4.0
    theorem = ScheduleParams(mode="theorem4", gamma0=0.02, mu=mu, r_X=r_X)
    custom = ScheduleParams(mode="custom", gamma0=0.02, r_X=r_X, overrides=ScheduleOverrides(
        alpha_scale=1.0 / mu, alpha_exponent=1.0, xi_scale=1.0 / mu,
        delta_scale=0.5 * r_X * min(1.0 / mu, 1.0)))
    a, b = round_params(theorem, t), round_params(custom, t)
    assert (a.alpha, a.gamma, a.xi) == (b.alpha, b.gamma, b.xi)


def _log_uniform(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda k: 10.0 ** k)


SCHEDULES = st.one_of(
    st.fixed_dictionaries({"mode": st.just("theorem1"), "c": st.floats(0.01, 0.99)}),
    st.fixed_dictionaries({"mode": st.just("theorem4"), "mu": _log_uniform(-300, 300)}),
    st.fixed_dictionaries({"mode": st.just("custom"), "overrides": st.fixed_dictionaries({
        "alpha_scale": _log_uniform(-6, 6), "alpha_exponent": st.floats(0.0, 300.0),
        "xi_scale": _log_uniform(-6, 6), "delta_scale": _log_uniform(-6, 6)})}),
)


@settings(max_examples=300, deadline=None)
@given(SCHEDULES, _log_uniform(-6, 6), st.integers(min_value=1, max_value=1500))
def test_resolved_config_never_fails_a_round(schedule, gamma0, horizon):
    # resolve_config checks only the first and last rounds; every round in
    # between must then pass too. Exponents up to 300 reach underflow and an
    # infinite dual scale inside the horizon.
    raw = {"problem": {"n": 2, "p": 2, "m_i": 1},
           "schedule": {**schedule, "gamma0": gamma0, "theorem_compliant": False},
           "run": {"horizon": horizon, "seeds": [1]}}
    try:
        cfg = resolve_config(raw)
    except ConfigError:
        return
    for t in range(1, horizon + 1):
        round_params(cfg.schedule, t)
