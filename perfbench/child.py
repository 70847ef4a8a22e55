"""One banditpd CLI invocation in a fresh interpreter, timed from inside.

Usage: child.py MODE RESULT_JSON -- <banditpd CLI arguments>

MODE is one of
  run     call banditpd.cli.main and time it, with no wrappers beyond the
          one that stamps the first call into run_experiment;
  setup   stop at the first call into run_experiment (returns exit code 0
          without running anything), for set-up samples only;
  trace   like run, but every layer boundary listed in TRACED is wrapped,
          and the RunTrace arrays of each seed are saved next to RESULT_JSON.

The result file holds monotonic-clock stamps (comparable with the parent's,
since both read CLOCK_MONOTONIC), the CLI exit code, CPU time and peak RSS,
and in trace mode the per-span statistics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time

START = time.monotonic()

# (attribute owner path, attribute name, span name). Each function is wrapped
# under the name its caller looks it up by, so no call is counted twice.
TRACED = (
    ("banditpd.cli", "parse_config", "cli.parse_config"),
    ("banditpd.cli", "run_experiment", "cli.run_experiment"),
    ("banditpd.cli", "run_horizon", "engine.run_horizon"),
    ("banditpd.cli", "evaluate_trace", "metrics.evaluate_trace"),
    ("banditpd.cli", "solve_offline_comparator", "metrics.solve_offline_comparator"),
    ("banditpd.engine", "run_round", "engine.run_round"),
    ("banditpd.engine", "round_params", "schedule.round_params"),
    ("banditpd.engine", "generate_round_graph", "network.generate_round_graph"),
    ("banditpd.engine", "build_mixing", "network.build_mixing"),
    ("banditpd.engine", "sample_unit_sphere", "oracle.sample_unit_sphere"),
    ("banditpd.engine", "project_scaled", "geometry.project_scaled"),
    ("banditpd.problems", "materialize", "problems.materialize"),
    ("banditpd.metrics", "project_intersection", "geometry.project_intersection"),
    ("banditpd.metrics", "nnls", "metrics.nnls"),
    ("banditpd.oracle:StreamFactory", "stream", "oracle.StreamFactory.stream"),
)

TRACE_ARRAYS = ("x_hist", "loss", "g_clipped", "direction_norm", "step_norm", "dual_norm")


class SpanStats:
    """Per-name call count, total time and time covered by child spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                entry[0] += 1
                entry[1] += dt
                entry[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def as_dict(self) -> dict:
        return {name: {"calls": c, "total_s": tot, "self_s": tot - child}
                for name, (c, tot, child) in self.stats.items()}


def _owner(path: str):
    """Module, or class when the path is 'module:Class'."""
    module_name, _, cls = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def trace_digest(trace) -> str:
    """sha256 over the arrays run_horizon returns, with their shapes."""
    h = hashlib.sha256()
    for name in TRACE_ARRAYS:
        arr = getattr(trace, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def main() -> int:
    mode, result_path = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py MODE RESULT_JSON -- <cli args>")
    cli_argv = sys.argv[4:]

    t_import = time.monotonic()
    import banditpd.cli as cli
    import_s = time.monotonic() - t_import

    result: dict = {"start": START, "import_s": import_s}
    spans = SpanStats() if mode == "trace" else None
    traces: list = []

    real_run_experiment = cli.run_experiment

    def stamped_run_experiment(config):
        result.setdefault("first_run_experiment", time.monotonic())
        if mode == "setup":
            return cli.EXIT_OK
        return real_run_experiment(config)

    cli.run_experiment = stamped_run_experiment
    if spans is not None:
        for owner_path, attr, name in TRACED:
            owner = _owner(owner_path)
            setattr(owner, attr, spans.wrap(name, getattr(owner, attr)))
        traced_run_horizon = cli.run_horizon

        def keeping_run_horizon(T, config, *args, **kwargs):
            trace = traced_run_horizon(T, config, *args, **kwargs)
            traces.append(trace)
            return trace

        cli.run_horizon = keeping_run_horizon
        traced_evaluate_trace = cli.evaluate_trace

        def measuring_evaluate_trace(trace):
            ev = traced_evaluate_trace(trace)
            size = sum(v.nbytes for v in vars(ev).values() if hasattr(v, "nbytes"))
            result["evaluation_bytes"] = max(result.get("evaluation_bytes", 0), size)
            return ev

        cli.evaluate_trace = measuring_evaluate_trace

    cpu0 = time.process_time()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    try:
        exit_code = cli.main(cli_argv)
    except Exception:  # reported as a failed run, not a crashed benchmark
        import traceback

        exit_code = -1
        result["error"] = traceback.format_exc()
    t1 = time.monotonic()
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (time.process_time() - cpu0
             + (children1.ru_utime - children0.ru_utime)
             + (children1.ru_stime - children0.ru_stime))

    result.update({
        "exit_code": exit_code,
        "run_s": t1 - t0,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if spans is not None:
        import numpy as np

        result["spans"] = spans.as_dict()
        result["seeds"] = []
        for trace in traces:
            seed = trace.problem.seed
            path = f"{result_path[:-len('.json')]}-seed{seed}.npz"
            np.savez(path, **{name: getattr(trace, name) for name in TRACE_ARRAYS})
            result["seeds"].append({
                "seed": seed,
                "digest": trace_digest(trace),
                "arrays": path,
                "trace_bytes": sum(getattr(trace, name).nbytes for name in TRACE_ARRAYS),
            })
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
