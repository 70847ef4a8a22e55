import json

import numpy as np
import pytest

from banditpd import cli
from banditpd.cli import (
    CSV_COLUMNS,
    EXIT_COMPARATOR,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)
from banditpd.engine import RunConfig, run_horizon
from banditpd.metrics import ComparatorResult, log_checkpoints
from banditpd.oracle import ProblemBounds
from banditpd.problems import compute_bounds
from banditpd.schedule import default_gamma0


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
        assert (cfg.n, cfg.p, cfg.q_i, cfg.m_i) == (100, 10, 4, 2)
        assert cfg.horizon == 1000
        assert cfg.seeds == (101, 102, 103, 104, 105)
        assert cfg.regret is False
        assert cfg.schedule.mode == "custom"
        assert cfg.schedule.gamma0 == 0.15
        assert cfg.schedule.overrides.alpha_exponent == 1.0
        assert cfg.schedule.overrides.delta_scale == 0.01

    def test_desk_preset_gets_compliant_gamma0(self):
        cfg = parse_config(preset="desk-convex-c05")
        # G2 for m_i=2, p=5 rows with entries in [0, 2] is 2 sqrt(10)
        assert cfg.schedule.gamma0 == pytest.approx(default_gamma0(5, 2 * np.sqrt(10)))
        assert cfg.schedule.theorem_compliant

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
        cfg = parse_config(preset="desk-strongly-convex-t4")
        again = cli.resolve_config(cfg.to_dict())
        assert again == cfg


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
        assert all(v == 0 for v in report["invariant_violations"].values())
        (seed_entry,) = report["seeds"]
        assert seed_entry["seed"] == 5
        assert seed_entry["comparator"]["converged"] is True
        assert seed_entry["comparator"]["max_violation"] <= 1e-6
        # the digest is that of the trajectory the library produces for this seed
        cfg = parse_config(preset="desk-convex-c05", overrides={"run": {"horizon": 60}})
        trace = run_horizon(60, RunConfig(
            problem=cfg.problem_spec(5), schedule=cfg.schedule, graph=cfg.graph_schedule(5),
            bounds=compute_bounds(cfg.problem_spec(5), 60)))
        assert seed_entry["trace_digest"] == trace.digest()
        assert seed_entry["fingerprint"] == trace.fingerprint()

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
            cli, "compute_bounds",
            lambda spec, horizon: ProblemBounds(F=1e-12, G1=1e-12, G2=1e-12))
        cfg = parse_config(preset="desk-convex-c05",
                           overrides=desk_overrides(tmp_path))
        assert run_experiment(cfg) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err

    def test_comparator_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        bad = ComparatorResult(x_star=np.zeros(5), objective=0.0,
                               converged=False, max_violation=1.0)
        monkeypatch.setattr(cli, "solve_offline_comparator",
                            lambda *args, **kwargs: bad)
        cfg = parse_config(preset="desk-convex-c05",
                           overrides=desk_overrides(tmp_path))
        assert run_experiment(cfg) == EXIT_COMPARATOR
        assert "comparator failure" in capsys.readouterr().err
