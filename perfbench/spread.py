"""Run one workload N times and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload desk-c05 --runs 10 --first-seed 1

Each run is `perfbench/run.py --trace 0` with the next seed and the run
length from BENCHMARK.json. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles with n=4), the quartile distance as a
share of the median, and that share against the metric's bound. The runs and
the summary are written to perfbench/results/spread-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result, context = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "result": result, "reference_loop_s": context["reference_loop_s"],
                     "rounds": context["rounds"]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ref={context['reference_loop_s']} {values}", flush=True)

    summary = {}
    for name, bound in bounds.items():
        summary[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs], bound)
        s = summary[name]
        print(f"{name:>20}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}  bound {bound}  (bound/3 {bound / 3:.4f})")
    fail_shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(fail_shares)}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spread-{args.workload}-{args.first_seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
