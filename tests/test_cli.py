import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from banditpd import cli, engine
from banditpd.cli import (
    CSV_COLUMNS,
    EXIT_COMPARATOR,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    PRESETS,
    ConfigError,
    main,
    parse_config,
    run_experiment,
    simulate,
)
from banditpd.metrics import ComparatorResult, log_checkpoints
from banditpd.oracle import ProblemBounds
from banditpd.schedule import default_gamma0


README = Path(__file__).resolve().parents[1] / "README.md"

# json.dumps(parse_config(preset=name).to_dict(), sort_keys=True) for each preset:
# the resolved config that report.json echoes. A changed key, type or default
# shows here.
RESOLVED_PRESETS = {
    "desk-convex-c05": (
        '{"graph": {"backbone": true, "edge_prob": 0.3}, "problem": {"b_offset": 0.01, '
        '"halfwidth": 5.0, "m_i": 2, "mu_reg": 0.0, "n": 10, "p": 5, "q_i": 2}, '
        '"run": {"horizon": 2000, "init_rule": "zeros", '
        '"out": "runs/out", '
        '"regret": true, "seeds": [101, 102, 103], "tail_fraction": 0.5, '
        '"variant": "paper"}, "schedule": {"c": 0.5, "gamma0": 0.00024038461538461534, '
        '"mode": "theorem1", "mu": null, "overrides": null, "theorem_compliant": true}}'),
    "desk-slater-margin-sweep": (
        '{"graph": {"backbone": true, "edge_prob": 0.3}, "problem": {"b_offset": 1.0, '
        '"halfwidth": 5.0, "m_i": 2, "mu_reg": 0.0, "n": 10, "p": 5, "q_i": 2}, '
        '"run": {"horizon": 2000, "init_rule": "zeros", '
        '"out": "runs/out", '
        '"regret": true, "seeds": [101, 102, 103, 104, 105], "tail_fraction": 0.5, '
        '"variant": "paper"}, "schedule": {"c": 0.5, "gamma0": 0.00024038461538461534, '
        '"mode": "theorem1", "mu": null, "overrides": null, "theorem_compliant": true}}'),
    "desk-strongly-convex-t4": (
        '{"graph": {"backbone": true, "edge_prob": 0.3}, "problem": {"b_offset": 0.01, '
        '"halfwidth": 5.0, "m_i": 2, "mu_reg": 1.0, "n": 10, "p": 5, "q_i": 2}, '
        '"run": {"horizon": 2000, "init_rule": "zeros", '
        '"out": "runs/out", '
        '"regret": true, "seeds": [101, 102, 103, 104, 105], "tail_fraction": 0.5, '
        '"variant": "paper"}, "schedule": {"c": 0.5, "gamma0": 0.00024038461538461534, '
        '"mode": "theorem4", "mu": 1.0, "overrides": null, "theorem_compliant": true}}'),
    "paper-sec4": (
        '{"graph": {"backbone": true, "edge_prob": 0.1}, "problem": {"b_offset": 0.01, '
        '"halfwidth": 5.0, "m_i": 2, "mu_reg": 0.0, "n": 100, "p": 10, "q_i": 4}, '
        '"run": {"horizon": 1000, "init_rule": "zeros", '
        '"out": "runs/out", '
        '"regret": false, "seeds": [101, 102, 103, 104, 105], "tail_fraction": 0.5, '
        '"variant": "paper"}, "schedule": {"c": 0.5, "gamma0": 0.15, "mode": "custom", '
        '"mu": null, "overrides": {"alpha_exponent": 1.0, "alpha_scale": 1.0, '
        '"delta_scale": 0.01, "xi_scale": 1.0}, "theorem_compliant": false}}'),
}


def desk_overrides(tmp_path, horizon=40, seeds=(1,)):
    return {"run": {"horizon": horizon, "seeds": list(seeds), "out": str(tmp_path / "out")}}


class TestParse:
    def test_needs_preset_or_file(self):
        with pytest.raises(ConfigError):
            parse_config()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config(preset="desk-convex-c99")

    def test_unknown_key_names_the_path(self):
        with pytest.raises(ConfigError, match="problem.bogus"):
            parse_config(preset="desk-convex-c05", overrides={"problem": {"bogus": 1}})
        with pytest.raises(ConfigError, match="schedule.overrides.beta"):
            parse_config(preset="paper-sec4",
                         overrides={"schedule": {"overrides": {"beta": 2.0}}})

    def test_step_exponent_range(self):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(preset="desk-convex-c05", overrides={"schedule": {"c": 1.5}})

    def test_seed_list_validation(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(preset="desk-convex-c05", overrides={"run": {"seeds": []}})
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(preset="desk-convex-c05", overrides={"run": {"seeds": [1, 1]}})
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(preset="desk-convex-c05", overrides={"run": {"seeds": [-3]}})

    def test_paper_preset_resolved_values(self):
        cfg = parse_config(preset="paper-sec4")
        spec = cfg.problem_spec(cfg.seeds[0])
        assert (spec.n, spec.p, spec.q_i, spec.m_i) == (100, 10, 4, 2)
        assert cfg.horizon == 1000
        assert cfg.seeds == (101, 102, 103, 104, 105)
        assert cfg.to_dict()["run"]["regret"] is False
        assert cfg.schedule.mode == "custom"
        assert cfg.schedule.gamma0 == 0.15
        assert cfg.schedule.overrides.alpha_exponent == 1.0
        assert cfg.schedule.overrides.delta_scale == 0.01

    def test_desk_preset_gets_compliant_gamma0(self):
        cfg = parse_config(preset="desk-convex-c05")
        # G2 for m_i=2, p=5 rows with entries in [0, 2] is 2 sqrt(10)
        assert cfg.schedule.gamma0 == pytest.approx(default_gamma0(5, 2 * np.sqrt(10)))
        assert cfg.values["schedule"]["theorem_compliant"]

    def test_compliance_ceiling_enforced(self):
        with pytest.raises(ConfigError, match="compliant ceiling"):
            parse_config(preset="desk-convex-c05",
                         overrides={"schedule": {"gamma0": 0.5}})
        cfg = parse_config(preset="desk-convex-c05",
                           overrides={"schedule": {"gamma0": 0.5,
                                                   "theorem_compliant": False}})
        assert cfg.schedule.gamma0 == 0.5

    def test_file_overrides_preset_and_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run": {"horizon": 77}}))
        cfg = parse_config(str(path), "desk-convex-c05")
        assert cfg.horizon == 77
        cfg = parse_config(str(path), "desk-convex-c05", {"run": {"horizon": 88}})
        assert cfg.horizon == 88

    def test_missing_or_malformed_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(str(arr))

    def test_to_dict_round_trips(self):
        for preset in sorted(PRESETS):
            cfg = parse_config(preset=preset)
            assert cli.resolve_config(cfg.to_dict()) == cfg, preset

    @pytest.mark.parametrize("preset", sorted(RESOLVED_PRESETS))
    def test_resolved_presets_are_pinned(self, preset):
        resolved = json.dumps(parse_config(preset=preset).to_dict(), sort_keys=True)
        assert resolved == RESOLVED_PRESETS[preset]

    @pytest.mark.parametrize("preset, override, path", [
        ("desk-convex-c05", {"problem": {"n": True}}, "problem.n"),
        ("desk-convex-c05", {"run": {"horizon": True}}, "run.horizon"),
        ("paper-sec4", {"schedule": {"overrides": {"xi_scale": "x"}}},
         "schedule.overrides.xi_scale"),
        # the comparator's tolerance is a constant, not an option
        ("desk-convex-c05", {"run": {"comparator": {"tol": 1e-6}}}, "run.comparator"),
        ("paper-sec4", {"schedule": {"overrides": {"alpha_scale": True}}},
         "schedule.overrides.alpha_scale"),
        # the dual scale gamma0 / alpha overflows to inf from round 982 of 1000
        ("paper-sec4", {"schedule": {"overrides": {"alpha_exponent": 103.3}}},
         "schedule.overrides"),
        # ... and at round 1 when alpha starts subnormal
        ("paper-sec4", {"schedule": {"overrides": {"alpha_scale": 1e-320}}},
         "schedule.overrides"),
        ("desk-convex-c05", {"problem": {"halfwidth": float("inf")}}, "problem.halfwidth"),
        # finite, but the analytic bounds overflow
        ("desk-convex-c05", {"problem": {"halfwidth": 1e308}}, "problem"),
        # rejected by sign; 1000.0 ** 2000 would also overflow at the last round
        ("paper-sec4", {"schedule": {"overrides": {"alpha_exponent": -2000}}},
         "schedule.overrides"),
        # the loss bound F overflows; G1 and G2 stay finite
        ("desk-convex-c05", {"problem": {"halfwidth": 1e200}}, "problem.halfwidth"),
        # the ridge term alone overflows G1 and F
        ("desk-strongly-convex-t4", {"problem": {"mu_reg": 1e308}}, "problem.mu_reg"),
        # a growing xi passes the round check, but the run would stop at t=12
        # with a step-bound violation
        ("paper-sec4", {"schedule": {"overrides": {"alpha_scale": 0.5, "alpha_exponent": -0.5,
                                                   "xi_scale": 0.1, "delta_scale": 0.01}},
                        "run": {"horizon": 99}}, "schedule.overrides.alpha_exponent"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, preset, override, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(override))  # inf is written as Infinity
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a numpy overflow warning fails the case
            code = main(["--preset", preset, "--config", str(cfg_path), "--seed-list", "1",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and path in err

    def test_custom_schedule_that_fails_later_is_rejected_up_front(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"schedule": {"overrides": {"xi_scale": 0.01, "delta_scale": 0.4}}}))
        out = tmp_path / "out"
        code = main(["--preset", "paper-sec4", "--config", str(cfg_path),
                     "--seed-list", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "schedule.overrides" in capsys.readouterr().err
        assert not out.exists()
        # a steep decay: gamma = 0.15 t^200 first overflows to inf at t = 36,
        # before delta = 0.01 t^-200 underflows to 0 at t = 41
        steep = {"schedule": {"overrides": {"alpha_exponent": 200}}, "run": {"horizon": 35}}
        assert parse_config(preset="paper-sec4", overrides=steep).horizon == 35
        steep["run"]["horizon"] = 36
        with pytest.raises(ConfigError, match=r"schedule\.overrides: .*gamma=inf.*round 36"):
            parse_config(preset="paper-sec4", overrides=steep)


class TestMainFlags:
    def test_small_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--preset", "desk-convex-c05", "--horizon", "40",
                     "--seed-list", "1,2", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("seed-1.csv", "seed-2.csv", "seed-averaged.csv", "report.json"):
            assert (out / name).exists()
        lines = (out / "seed-1.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(log_checkpoints(39))
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) >= 0.0  # cumulative loss

    def test_report_contents(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--preset", "desk-convex-c05", "--horizon", "60",
                     "--seed-list", "5", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["run"]["horizon"] == 60
        assert set(report["rate_envelopes"]) == {"T1-reg", "T1-ccv", "T2-ccv"}
        assert report["rate_envelopes"]["T1-reg"] == 0.5
        assert set(report) == {"version", "config", "slopes", "rate_envelopes", "seeds"}
        (seed_entry,) = report["seeds"]
        assert set(seed_entry) == {"seed", "trace_digest", "comparator"}
        assert seed_entry["seed"] == 5
        assert set(seed_entry["comparator"]) == {
            "converged", "objective", "max_violation", "refinements", "working_rows", "x_star"}
        assert seed_entry["comparator"]["converged"] is True
        assert seed_entry["comparator"]["max_violation"] <= 1e-6
        # the exact solves made, and a working set that holds the 2p box faces
        assert 1 <= seed_entry["comparator"]["refinements"]
        assert seed_entry["comparator"]["working_rows"] >= 10
        # the entry is what the library's simulate gives for this seed
        cfg = parse_config(preset="desk-convex-c05", overrides={"run": {"horizon": 60}})
        result = simulate(cfg, 5)
        assert seed_entry["trace_digest"] == result["trace_digest"]
        assert seed_entry["comparator"] == result["comparator"]

    def test_no_regret_skips_comparator(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--preset", "desk-convex-c05", "--horizon", "40",
                     "--seed-list", "1", "--out", str(out), "--no-regret"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"][0]["comparator"] is None
        assert report["slopes"]["net_regret"] is None
        row = (out / "seed-1.csv").read_text().splitlines()[1].split(",")
        assert row[1] == "nan"

    def test_horizon_one_yields_header_only(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--preset", "desk-convex-c05", "--horizon", "1",
                     "--seed-list", "1", "--out", str(out)]) == EXIT_OK
        assert (out / "seed-1.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_bad_seed_list_is_config_error(self, tmp_path, capsys):
        code = main(["--preset", "desk-convex-c05", "--seed-list", "1,x",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        code = main(["--preset", "no-such", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "unknown preset" in capsys.readouterr().err

    def test_variant_flag_reaches_the_engine(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["--preset", "desk-convex-c05", "--horizon", "120",
                "--seed-list", "3", "--no-regret"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b), "--variant", "clipped-primal"]) == EXIT_OK
        a = (out_a / "seed-3.csv").read_bytes()
        b = (out_b / "seed-3.csv").read_bytes()
        assert a != b


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        args = ["--preset", "desk-convex-c05", "--horizon", "50", "--seed-list", "1,2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("seed-1.csv", "seed-2.csv", "seed-averaged.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # reports agree on everything but the output directory itself
        reports = []
        for sub in ("a", "b"):
            report = json.loads((tmp_path / sub / "report.json").read_text())
            report["config"]["run"]["out"] = "normalized"
            reports.append(report)
        assert reports[0] == reports[1]

    def test_report_config_replays_the_run(self, tmp_path):
        # report.json's config, fed back as the whole config, reruns the same
        # experiment: every CSV byte for byte, and the report up to run.out.
        first = tmp_path / "first"
        assert main(["--preset", "desk-strongly-convex-t4", "--horizon", "200",
                     "--seed-list", "101,102", "--out", str(first)]) == EXIT_OK
        report = json.loads((first / "report.json").read_text())
        config_path = tmp_path / "replay.json"
        config_path.write_text(json.dumps(report["config"]))
        replay = tmp_path / "replay"
        assert main(["--config", str(config_path), "--out", str(replay)]) == EXIT_OK
        for name in ("seed-101.csv", "seed-102.csv", "seed-averaged.csv"):
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name
        replayed = json.loads((replay / "report.json").read_text())
        assert replayed["config"]["run"].pop("out") == str(replay)
        assert report["config"]["run"].pop("out") == str(first)
        assert replayed == report

    def test_csv_floats_survive_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--preset", "desk-convex-c05", "--horizon", "30",
                     "--seed-list", "1", "--out", str(out)]) == EXIT_OK
        for line in (out / "seed-1.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            for cell in cells[1:]:
                value = float(cell)
                assert cli._fmt(value) == cell


class TestExitCodes:
    def test_invariant_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            engine, "compute_bounds",
            lambda spec: ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12))
        cfg = parse_config(preset="desk-convex-c05",
                           overrides=desk_overrides(tmp_path))
        assert run_experiment(cfg) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err

    def test_non_finite_step_exits_two(self, tmp_path, capsys):
        # The schedule resolves for horizon 960, but p / delta overflows at
        # round 902: the run stops there with an invariant violation rather
        # than a traceback from the projection, and prints that line alone.
        # A numpy floating-point notice would fail the test through the
        # error::RuntimeWarning filter in pyproject.toml. Ten agents keep it
        # quick; the overflow round depends only on p and the schedule.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"n": 10},
                                        "schedule": {"overrides": {"alpha_exponent": 103.3}}}))
        code = main(["--preset", "paper-sec4", "--config", str(cfg_path), "--horizon", "960",
                     "--no-regret", "--seed-list", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err == "invariant violation: non-finite step at t=902, agent 1\n"

    def test_norms_past_the_square_overflow_stay_finite(self, tmp_path):
        # The same run up to round 900: from round 32 on the duals pass 1e154,
        # so their squares overflow while every dual entry and step is finite.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"n": 10},
                                        "schedule": {"overrides": {"alpha_exponent": 103.3}}}))
        out = tmp_path / "out"
        assert main(["--preset", "paper-sec4", "--config", str(cfg_path), "--horizon", "901",
                     "--no-regret", "--seed-list", "1", "--out", str(out)]) == EXIT_OK
        table = np.loadtxt(out / "seed-1.csv", delimiter=",", skiprows=1)
        assert np.isfinite(table[:, 2:]).all()
        assert table[-1, 5] > 1e300  # mean_dual_norm, far past where its square overflows

    def test_comparator_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        bad = ComparatorResult(x_star=np.zeros(5), objective=0.0, converged=False,
                               max_violation=1.0, refinements=1, working_rows=10)
        monkeypatch.setattr(cli, "solve_offline_comparator",
                            lambda *args, **kwargs: bad)
        cfg = parse_config(preset="desk-convex-c05",
                           overrides=desk_overrides(tmp_path))
        assert run_experiment(cfg) == EXIT_COMPARATOR
        assert "comparator failure" in capsys.readouterr().err


def test_readme_python_session_runs():
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for block in blocks:
        # pad with newlines so tracebacks give README line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {})
    for section, key, *_ in cli.CONFIG_KEYS:
        assert f"`{section}.{key}`" in text, f"README lists no {section}.{key}"
