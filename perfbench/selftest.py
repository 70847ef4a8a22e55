"""Self-test of the output checks: each perturbation must be rejected.

    python3 perfbench/selftest.py

Runs one small traced CLI invocation (desk-convex-c05, T=300, two seeds),
confirms the unperturbed outputs pass every check, then perturbs one output
at a time and confirms the check meant to catch it fails. Exits 0 when the
baseline passes and every perturbation is caught.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys

import numpy as np

import run

SEEDS = (101, 102)
HORIZON = 300
ARGV = ["--preset", "desk-convex-c05", "--horizon", str(HORIZON),
        "--seed-list", ",".join(map(str, SEEDS))]


def _edit_csv(path, row: int, column: str, change):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    col = header.index(column)
    cells[col] = "%.17g" % change(float(cells[col]))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_x_star(out_dir):
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    report["seeds"][0]["comparator"]["x_star"][0] -= 1e-3
    path.write_text(json.dumps(report))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks

    work = run.RESULTS / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    rec = run.spawn("trace", [*ARGV, "--out", str(out.relative_to(run.ROOT))], work / "trace.json")
    if rec["exit_code"] != 0:
        print(f"CLI run failed: {rec['exit_code']} {rec['stderr'][-1000:]}")
        return 1
    traces = {}
    for s in rec["seeds"]:
        with np.load(s["arrays"]) as npz:
            traces[s["seed"]] = {key: npz[key] for key in npz.files}
    sample = checks.sample_round_list(random.Random(0), HORIZON - 1)
    mid = 50  # a checkpoint row well inside the CSVs

    def perturb_loss(tr):
        tr[SEEDS[0]]["loss"][sample[0] - 1, 0] *= 1.0 + 1e-6

    cases = {
        # name: (edit of the output directory, edit of the trace arrays, checks meant to fail)
        "x_star coordinate -1e-3": (_edit_x_star, None,
                                    {"x_star_kkt", "x_star_feasible", "x_star_box"}),
        "net_ccv value x(1+1e-6)": (lambda d: _edit_csv(d / f"seed-{SEEDS[0]}.csv", mid, "net_ccv",
                                                        lambda v: v * (1 + 1e-6)), None,
                                    {"ccv_recomputed"}),
        "net_regret(T) +1e-3|value|": (lambda d: _edit_csv(d / f"seed-{SEEDS[1]}.csv", -1, "net_regret",
                                                           lambda v: v + 1e-3 * abs(v)), None,
                                       {"regret_identity"}),
        "seed-averaged cum_loss x(1+1e-9)": (lambda d: _edit_csv(d / "seed-averaged.csv", mid, "cum_loss",
                                                                 lambda v: v * (1 + 1e-9)), None,
                                             {"seed_average"}),
        "sampled loss x(1+1e-6)": (None, perturb_loss, {"sampled_loss"}),
    }

    checker = checks.RunChecker()
    baseline = checker.check(out, SEEDS, HORIZON, True, traces=traces, sample_rounds=sample)
    ok = not baseline
    print(f"baseline: {'pass' if not baseline else [str(f) for f in baseline]}")
    for name, (edit_dir, edit_trace, meant) in cases.items():
        case_dir = work / "case"
        shutil.rmtree(case_dir, ignore_errors=True)
        shutil.copytree(out, case_dir)
        case_traces = copy.deepcopy(traces)
        if edit_dir:
            edit_dir(case_dir)
        if edit_trace:
            edit_trace(case_traces)
        failures = checker.check(case_dir, SEEDS, HORIZON, True, traces=case_traces,
                                 sample_rounds=sample)
        fired = sorted({f.check for f in failures})
        caught = bool(meant & set(fired))
        ok &= caught
        print(f"{name}: {'rejected' if caught else 'NOT CAUGHT'} by {fired}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
