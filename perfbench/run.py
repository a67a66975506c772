#!/usr/bin/env python3
"""toolate benchmark: end-to-end metrics, or a traced per-layer breakdown.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload stream_records --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Set-up is timed first: fresh interpreters that import the package.  The
workload then runs in one child process (``workloads.py``) with BLAS
held to one thread.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Per-layer times, calls and MB are per
operation.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stream_records", "sample_counts", "exact_audit", "collapse_trials")
SETUP_RUNS = 9
CHILD_GRACE_S = 150

# the operation of each workload, for the summary lines
OPERATION = {
    "stream_records": "one toolate --out command",
    "sample_counts": "one toolate and one epr command",
    "exact_audit": "five commands for each of the six port bindings",
    "collapse_trials": "one run_trial",
}

# gated end-to-end metrics.  Each operation's wall time is divided by the
# median wall time of the fixed reference kernel (workloads.reference_kernel)
# over the runs of it within REFERENCE_WINDOW_S of that operation: the
# host's speed drifts by 20% and more within a run and between runs, and
# these ratios move several times less than the seconds do.  The seconds
# are printed in the summary lines.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_mean_ref": "ref",
    "peak_rss_mb": "MB",
}
REFERENCE_WINDOW_S = 1.0

# per-layer metrics: <layer>.<function>.<stat>, stats as the tracer reports them
FUNCTION_STATS = {
    "experiments.records_text": ("self_s", "mb"),
    "io.Path.write_text": ("self_s", "mb"),
    "kernels.protocol_outcomes": ("self_s",),
    "kernels.categorical_counts": ("self_s",),
    "kernels.trial_seeds": ("self_s",),
    "experiments.run_toolate": ("self_s",),
    "experiments.run_epr": ("self_s",),
    "experiments.EstimateTable.to_csv_text": ("self_s",),
    "protocol.stage_conditionals": ("calls", "self_s", "distinct_ratio"),
    "protocol.composed_distribution": ("calls", "self_s"),
    "protocol.joint_distribution": ("self_s",),
    "experiments.run_verify": ("self_s",),
    "audit.verify_states": ("self_s",),
    "interference.swap_report": ("self_s",),
    "interference.erase_paths": ("calls", "self_s"),
    "lhv.conspiracy_predictions": ("self_s",),
    "spinlab.correlation_exact": ("calls", "self_s"),
    "qcore.project": ("calls", "self_s"),
    "qcore.is_projector": ("calls", "self_s"),
    "protocol.exit_projector": ("calls", "self_s"),
    "protocol.value_projectors": ("calls", "self_s"),
    "protocol.run_trial": ("self_s",),
    "protocol.measure_value": ("self_s",),
    "protocol.measure_orientation": ("self_s",),
    "protocol.prepare_joint": ("calls",),
    "qcore.sample": ("calls", "self_s"),
    "qcore.validate_partition": ("calls", "self_s", "distinct_ratio"),
    "qcore.projection_probability": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "mb": "MB", "distinct_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {"import.numpy_s": "s", "import.toolate_s": "s"}
    for function, stats in FUNCTION_STATS.items():
        for stat in stats:
            units[f"{function}.{stat}"] = STAT_UNITS[stat]
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.untraced_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import toolate; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1, toolate.__file__)"
)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TOOLATE_THREADS"):
        env[var] = "1"
    return env


def measure_setup(root: Path, env) -> dict:
    """Median wall time of a fresh interpreter importing the package, plus the
    in-process split between numpy and the package's own modules."""
    package = (root / "src" / "toolate" / "__init__.py").resolve()
    walls, numpy_s, toolate_s = [], [], []
    for run in range(SETUP_RUNS + 1):  # the first run also writes the bytecode caches
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"importing toolate failed: {proc.stderr.strip()[-300:]}")
        t_numpy, t_toolate, where = proc.stdout.split()
        if Path(where).resolve() != package:
            raise RuntimeError(f"toolate was imported from {where}, not from ./src")
        if run:
            walls.append(wall)
            numpy_s.append(float(t_numpy))
            toolate_s.append(float(t_toolate))
    return {
        "setup_s": statistics.median(walls),
        "numpy_s": statistics.median(numpy_s),
        "toolate_s": statistics.median(toolate_s),
        "runs": len(walls),
    }


def run_child(root: Path, env, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} child printed no result")
    return json.loads(lines[-1])


def environment(root: Path) -> dict:
    """Read-only facts about the machine and the code under test."""
    import numpy

    cpu_model = llc = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        try:
            llc = f"L{(caches[-1] / 'level').read_text().strip()} " \
                  f"{(caches[-1] / 'size').read_text().strip()}"
        except OSError:
            pass
    sha = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, env={**os.environ, "GIT_DIR": str(root / ".git")})
            sha = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "last_level_cache": llc,
    }


def percentile_with_tail(values: list[float], q: float, tail: int = 10):
    """The q-quantile, or None unless at least ``tail`` samples lie beyond it."""
    ordered = sorted(values)
    index = math.ceil(q * len(ordered)) - 1
    if index < 0 or len(ordered) - 1 - index < tail:
        return None
    return ordered[index]


def reference_ratios(child: dict) -> list[float]:
    """Each untraced operation's wall time over the median reference-kernel
    time within REFERENCE_WINDOW_S of the operation."""
    ref_times, ref_walls = child["reference_times"], child["reference_walls"]
    ratios = []
    for start, wall in zip(child["op_times"], child["walls"]):
        lo = bisect.bisect_left(ref_times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(ref_times, start + wall + REFERENCE_WINDOW_S)
        ratios.append(wall / statistics.median(ref_walls[lo:hi]))
    return ratios


def end_to_end(setup: dict, child: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as (value, unit); END_TO_END names the gated ones.

    The others are in seconds, apply to only some workloads, or are 0 on a
    correct tree (``fail_ratio``, also carried by ``failed``/``attempted``).
    """
    walls = child["walls"]
    busy = sum(walls)
    ops_per_s = len(walls) / busy
    ratios = reference_ratios(child)
    gated = {
        "setup_s": setup["setup_s"],
        "op_p50_ref": statistics.median(ratios),
        "op_mean_ref": statistics.mean(ratios),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    values = {name: (gated[name], unit) for name, unit in END_TO_END.items()}
    values["ops_per_s"] = (ops_per_s, "1/s")
    values["op_p50_s"] = (statistics.median(walls), "s")
    p90 = percentile_with_tail(walls, 0.9)
    if p90 is not None:
        values["op_p90_s"] = (p90, "s")
    if child["trials_per_op"]:
        values["trials_per_s"] = (ops_per_s * child["trials_per_op"], "1/s")
    if child["workload"] == "exact_audit":
        values["cmds_per_s"] = (ops_per_s * child["cmds_per_op"], "1/s")
    if child["workload"] == "stream_records":
        values["out_mb_per_s"] = (child["out_bytes"] / 1e6 / busy, "MB/s")
    values["reference_s"] = (statistics.median(child["reference_walls"]), "s")
    values["fail_ratio"] = (child["failed"] / child["attempted"], "ratio")
    return values


def per_layer(setup: dict, child: dict) -> dict:
    trace = child["trace"]
    values = {"import.numpy_s": setup["numpy_s"], "import.toolate_s": setup["toolate_s"]}
    for function, stats in FUNCTION_STATS.items():
        for stat in stats:
            values[f"{function}.{stat}"] = trace["functions"][function][stat]
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = trace["layers"][layer]
    values["trace.untraced_s"] = trace["untraced_s"]
    values["trace.overhead_s"] = (statistics.median(child["traced_walls"])
                                  - statistics.median(child["walls"]))
    return values


def run_workload(root, env, args, workload: str) -> dict:
    setup = measure_setup(root, env)
    child = run_child(root, env, workload, args.seed, args.seconds, args.trace)
    n = len(child["walls"])
    print(f"== {workload}: operation = {OPERATION[workload]}; {child['attempted']} attempted, "
          f"{child['failed']} failed; {n} untraced operations timed")
    for message in child["failures"]:
        print(f"   FAILED {message}")
    if args.trace:
        values = per_layer(setup, child)
        units = per_layer_units()
        trace = child["trace"]
        wall = statistics.median(child["traced_walls"])
        top = max(trace["layers"], key=trace["layers"].get)
        print(f"   traced operation wall {wall:.6g} s (median of {trace['ops']}); "
              f"top self-time layer: {top} ({trace['layers'][top] / wall:.1%})")
        busiest = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:5]
        for name, stats in busiest:
            print(f"   {name:42s} self {stats['self_s']:.6g} s/op ({stats['self_s'] / wall:.1%}), "
                  f"{stats['calls']:.6g} calls/op")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = end_to_end(setup, child)
        for name, (value, unit) in values.items():
            note = f" (n={n})" if name.startswith("op_p") else ""
            if name == "reference_s":
                note = f" (n={len(child['reference_walls'])})"
            print(f"   {name:14s} {value:.6g} {unit}{note}")
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail = {
        "environment": environment(root),
        "computed_sizes": {k: {"value": v, "unit": "MB", "computed": True}
                           for k, v in child["computed"].items()},
        "setup_runs": setup["runs"],
        "artifacts_sha256": child["artifacts"],
    }
    print("   detail: " + json.dumps(detail, sort_keys=True))
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "toolate" / "__init__.py").is_file():
        print("run.py: no package at ./src/toolate; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(root, env, args, name) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
