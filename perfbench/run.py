"""CLI benchmark of banditpd: one workload, whole rounds of CLI runs.

    python3 perfbench/run.py --workload desk-c05 --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Every CLI run is a fresh interpreter (perfbench/child.py) with
BANDITPD_THREADS=1 that times banditpd.cli.main from inside, so interpreter
start-up stays out of run_s. After each run its outputs are checked apart
from the program (perfbench/checks.py). With --trace 1 each round runs the
same CLI invocation untraced and then traced, with the same --out string,
and the two must write identical bytes; the traced run gives the per-layer
metrics. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

CHILD_TIMEOUT_S = 120
SETUP_PROBES = 4


@dataclass(frozen=True)
class Workload:
    """A fixed CLI invocation; the workload seed only rotates the seed list."""

    flags: tuple[str, ...]
    seeds: tuple[int, ...]
    horizon: int
    n: int
    regret: bool


WORKLOADS = {
    # The preset the README leads with, every stage on: per-agent Python
    # overhead and the comparator (Dykstra descent, then NNLS) dominate.
    "desk-c05": Workload(("--preset", "desk-convex-c05"),
                         seeds=(101, 102), horizon=2000, n=10, regret=True),
    # The paper's 100-agent network: graph generation and the widest round
    # arrays; the comparator is bypassed, so comparator changes read nothing.
    "sec4-n100": Workload(("--preset", "paper-sec4", "--no-regret", "--horizon", "100"),
                          seeds=(101, 102), horizon=100, n=100, regret=False),
    # The other branches: theorem4 schedule, ridge term, clipped Jacobian and
    # the uniform-init stream.
    "t4-clipped": Workload(("--preset", "desk-strongly-convex-t4", "--variant", "clipped-primal",
                            "--config", "perfbench/t4_init_uniform.json", "--horizon", "700"),
                           seeds=(101, 102), horizon=700, n=10, regret=True),
}


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop, recorded to tell machine drift apart."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def steal_s() -> float | None:
    """Machine-wide CPU time taken by the host from this VM, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def blas_threads() -> int | None:
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["BANDITPD_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(mode: str, argv: list[str], result_path: Path) -> dict:
    """One fresh interpreter; returns its result record plus setup_s."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(result_path), "--", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    record = json.loads(result_path.read_text())
    first_call = record.get("first_run_experiment")  # absent when the config is rejected
    record["setup_s"] = None if first_call is None else first_call - t_spawn
    record["stderr"] = proc.stderr
    return record


def read_tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def per_layer(traced: list[dict], workload: Workload, imports: list[float],
              overheads: list[float]) -> dict:
    """Per-layer metrics from the span statistics of the traced CLI runs."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
    for rec in traced:
        for name, s in rec["spans"].items():
            acc = totals[name]
            acc[0] += s["calls"]
            acc[1] += s["total_s"]
            acc[2] += s["self_s"]
    runs = len(traced)
    rounds = runs * len(workload.seeds) * (workload.horizon - 1)
    agent_rounds = rounds * workload.n

    def calls(name):
        return totals[name][0]

    def total(name):
        return totals[name][1]

    def self_s(name):
        return totals[name][2]

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    mib = 1024.0 * 1024.0
    trace_bytes = max((s["trace_bytes"] for rec in traced for s in rec["seeds"]), default=0)
    evaluation_bytes = max(rec.get("evaluation_bytes", 0) for rec in traced)
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.parse_config_s": (total("cli.parse_config") / runs, "s"),
        "cli.self_s": (self_s("cli.run_experiment") / runs, "s"),
        "engine.round_us_per_agent_round": (1e6 * total("engine.run_round") / agent_rounds, "us"),
        "engine.self_us_per_agent_round": (1e6 * self_s("engine.run_round") / agent_rounds, "us"),
        "engine.trace_mb": (trace_bytes / mib, "MiB"),
        "network.graph_us_per_round": (per_call_us("network.generate_round_graph"), "us"),
        "network.mixing_us_per_round": (per_call_us("network.build_mixing"), "us"),
        "oracle.streams_per_agent_round": (calls("oracle.StreamFactory.stream") / agent_rounds, "count"),
        "oracle.stream_us_per_call": (per_call_us("oracle.StreamFactory.stream"), "us"),
        "oracle.sphere_us_per_agent_round": (1e6 * total("oracle.sample_unit_sphere") / agent_rounds, "us"),
        "problems.materialize_per_agent_round": (calls("problems.materialize") / agent_rounds, "count"),
        "problems.materialize_us_per_call": (per_call_us("problems.materialize"), "us"),
        "schedule.round_params_us_per_round": (1e6 * total("schedule.round_params") / rounds, "us"),
        "geometry.project_scaled_us_per_call": (per_call_us("geometry.project_scaled"), "us"),
        "geometry.dykstra_s": (total("geometry.project_intersection") / runs, "s"),
        "geometry.dykstra_calls": (calls("geometry.project_intersection") / runs, "count"),
        "metrics.evaluate_us_per_agent_round": (1e6 * total("metrics.evaluate_trace") / agent_rounds, "us"),
        "metrics.evaluation_mb": (evaluation_bytes / mib, "MiB"),
        "metrics.comparator_s": (total("metrics.solve_offline_comparator") / runs, "s"),
        "metrics.comparator_self_s": ((total("metrics.solve_offline_comparator")
                                       - total("geometry.project_intersection")) / runs, "s"),
        "metrics.nnls_calls": (calls("metrics.nnls") / runs, "count"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks  # imports banditpd, so only after main has found the sources

    workload = WORKLOADS[name]
    rng = random.Random(seed)
    shift = seed % len(workload.seeds)
    seeds = workload.seeds[shift:] + workload.seeds[:shift]
    sample_rounds = checks.sample_round_list(rng, workload.horizon - 1)

    work_dir = RESULTS / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    out_dir = work_dir / "out"
    argv = [*workload.flags, "--seed-list", ",".join(map(str, seeds)),
            "--out", str(out_dir.relative_to(ROOT))]

    machine = machine_record()
    ref_loop = [reference_loop_s()]
    probes = [spawn("setup", argv, work_dir / f"setup-{k}.json") for k in range(SETUP_PROBES)]
    setup_samples = [r["setup_s"] for r in probes if r["setup_s"] is not None]
    imports = [r["import_s"] for r in probes]

    checker = checks.RunChecker()
    runs, traced, overheads, digests = [], [], [], []
    attempted = failed = 0
    steal_start = steal_s()
    t_start = time.monotonic()
    while True:
        k = len(runs)
        shutil.rmtree(out_dir, ignore_errors=True)
        rec = spawn("run", argv, work_dir / f"run-{k}.json")
        runs.append(rec)
        imports.append(rec["import_s"])
        if rec["setup_s"] is not None:
            setup_samples.append(rec["setup_s"])
        failures = []
        arrays = None
        if rec["exit_code"] != 0:
            failures.append(checks.Failure(None, "exit_code", f"{rec['exit_code']}: {rec['stderr'][-500:]}"))
        if trace:
            untraced_bytes = read_tree(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            trec = spawn("trace", argv, work_dir / f"trace-{k}.json")
            traced.append(trec)
            imports.append(trec["import_s"])
            overheads.append(trec["run_s"] - rec["run_s"])
            digests.append({s["seed"]: s["digest"] for s in trec["seeds"]})
            if trec["exit_code"] != 0:
                failures.append(checks.Failure(None, "exit_code", f"traced: {trec['exit_code']}"))
            elif read_tree(out_dir) != untraced_bytes:
                failures.append(checks.Failure(None, "traced_bytes", "traced outputs differ from untraced"))
            arrays = {}
            for s in trec["seeds"]:
                with np.load(s["arrays"]) as npz:
                    arrays[s["seed"]] = {key: npz[key] for key in npz.files}
        if not failures:
            try:
                failures = checker.check(out_dir, seeds, workload.horizon, workload.regret,
                                         traces=arrays, sample_rounds=sample_rounds)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures = [checks.Failure(None, "outputs_unreadable", repr(exc))]
        bad = set(seeds) if any(f.seed is None for f in failures) else {f.seed for f in failures}
        attempted += len(seeds)
        failed += len(bad)
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)

        # Whole rounds only: stop at the round count whose end is nearest
        # to the requested run length.
        elapsed = time.monotonic() - t_start
        if elapsed + 0.5 * elapsed / len(runs) >= seconds:
            break
    steal_end = steal_s()
    machine["steal_s_during_rounds"] = (None if steal_start is None or steal_end is None
                                        else steal_end - steal_start)
    ref_loop.append(reference_loop_s())

    work = len(seeds) * (workload.horizon - 1) * workload.n
    if trace:
        metrics = per_layer(traced, workload, imports, overheads)
    else:
        metrics = {
            "run_s": (statistics.median(r["run_s"] for r in runs), "s"),
            "agent_rounds_per_s": (statistics.median(work / r["run_s"] for r in runs), "1/s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
        }
    record = {
        "workload": name, "seed": seed, "trace": trace, "seed_order": list(seeds),
        "sample_rounds": sample_rounds, "machine": machine, "reference_loop_s": ref_loop,
        "rounds": len(runs), "run_s": [r["run_s"] for r in runs],
        "setup_s": setup_samples, "trace_digests": digests,
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
    }
    (work_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"machine": machine, "reference_loop_s": ref_loop, "rounds": len(runs),
                      "seed_order": list(seeds), "trace_digests": digests}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "banditpd" / "cli.py").is_file():
        print(f"no banditpd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC, quiet=1)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
