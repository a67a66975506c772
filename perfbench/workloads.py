"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this script in a child process of its own, with the
package's ``src`` directory on PYTHONPATH and BLAS pinned to one thread.
Operations run back to back (a closed loop with one client) until the
next one would overrun ``--seconds``.  Only the calls into the program
are timed; the oracle gates run between operations.  With ``--trace 1``
operations alternate untraced and traced on the same inputs, so the
difference of the two medians is the tracing overhead.

    PYTHONPATH=src python3 perfbench/workloads.py --workload exact_audit \
        --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from toolate import cli, protocol
from toolate.experiments import ExperimentConfig, sample_protocol
from toolate.rng import TrialRng

import gates
from tracer import Tracer

TRIALS = 1_000_000
# A 1e6-trial records run takes 8 to 13 s on a 2-vCPU KVM guest, so a 25 s
# run would time one or two of them and its median would follow the host's
# drift.  At 2.5e5 trials a run times about eight, and the text still takes
# over 90% of the operation.
RECORD_TRIALS = 250_000
REFERENCE_INTERVAL_S = 0.2
PERMUTATIONS = ("0,1,2", "0,2,1", "1,0,2", "1,2,0", "2,0,1", "2,1,0")
AUDIT_COMMANDS = ("verify", "interfere", "erase", "lhv", "epr")


class Clock:
    """Times the calls into the program; installs the tracer around them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0

    @contextlib.contextmanager
    def timing(self):
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()


def run_cli(clock: Clock, argv: list[str]) -> tuple[list[str], str]:
    """One CLI command with stdout captured; returns (failures, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with clock.timing():
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                code = traceback.format_exc(limit=1).strip().splitlines()[-1]
    failures = gates.check_exit(argv[0], code)
    if failures and err.getvalue():
        failures.append(f"{argv[0]} stderr: {err.getvalue().strip()[:200]}")
    return failures, out.getvalue()


@contextlib.contextmanager
def fresh_directory(scratch: Path):
    """A new empty working directory, removed with its artifacts afterwards."""
    scratch.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=scratch)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield Path(path)
    finally:
        os.chdir(old)
        shutil.rmtree(path)


class Workload:
    """One kind of operation.  ``op(i, clock)`` performs operation input i and
    returns (failures, artifacts, out_bytes); ``finish`` runs deferred gates."""

    trials_per_op = 0
    cmds_per_op = 0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.trine = ExperimentConfig("toolate").trine()

    def finish(self) -> list[str]:
        return []

    def computed_sizes(self) -> dict:
        return {}


class StreamRecords(Workload):
    """toolate --out: sampling, the CSV table and the JSONL outcome records."""

    trials_per_op = RECORD_TRIALS
    cmds_per_op = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.records_bytes = 0

    def op(self, i, clock):
        seed = self.seed + i
        argv = ["toolate", "--trials", str(RECORD_TRIALS), "--seed", str(seed), "--out", "run.csv"]
        with fresh_directory(self.scratch) as here:
            failures, _ = run_cli(clock, argv)
            if failures:
                return failures, {}, 0
            table = (here / "run.csv").read_text(encoding="utf-8")
            failures += gates.check_toolate_csv(table, RECORD_TRIALS)
            more, records_sha, self.records_bytes = gates.check_records_file(
                here / "run.records.jsonl", RECORD_TRIALS, seed, self.trine
            )
        artifacts = {
            f"toolate seed={seed} run.csv": gates.sha256_text(table),
            f"toolate seed={seed} run.records.jsonl": records_sha,
        }
        return failures + more, artifacts, len(table.encode()) + self.records_bytes

    def computed_sizes(self):
        return {
            "records_mb": self.records_bytes / 1e6,
            "outcome_array_mb": RECORD_TRIALS * 4 * 8 / 1e6,
        }


class SampleCounts(Workload):
    """toolate and epr at 1e6 trials with the tables on stdout: the sampler alone."""

    trials_per_op = 2 * TRIALS
    cmds_per_op = 2

    def op(self, i, clock):
        seed = str(self.seed + i)
        failures, table = run_cli(clock, ["toolate", "--trials", str(TRIALS), "--seed", seed])
        if not failures:
            failures += gates.check_toolate_csv(table, TRIALS)
        more, epr = run_cli(clock, ["epr", "--trials", str(TRIALS), "--seed", seed])
        if not more:
            more += gates.check_epr_csv(epr, TRIALS)
        artifacts = {
            f"toolate seed={seed} stdout": gates.sha256_text(table),
            f"epr seed={seed} stdout": gates.sha256_text(epr),
        }
        return failures + more, artifacts, len(table) + len(epr)

    def computed_sizes(self):
        return {"outcome_array_mb": TRIALS * 4 * 8 / 1e6}


class ExactAudit(Workload):
    """The five exact commands at --trials 0 for each of the six port bindings.

    One operation covers all six bindings, so every operation does the
    same work; a single binding's pass costs 0.17 to 0.24 s depending on
    the binding, which would make the median jump between bindings.
    """

    cmds_per_op = len(AUDIT_COMMANDS) * len(PERMUTATIONS)

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.seen: dict[str, str] = {}

    def op(self, i, clock):
        failures, artifacts, size = [], {}, 0
        for binding in PERMUTATIONS:
            for command in AUDIT_COMMANDS:
                argv = [command, "--trials", "0", "--seed", str(self.seed),
                        "--port-binding", binding]
                bad, text = run_cli(clock, argv)
                if not bad:
                    if command == "verify":
                        bad = gates.check_verify_json(text)
                    elif command == "epr":
                        bad = gates.check_epr_csv(text, 0)
                    else:
                        bad = gates.check_json(command, text)
                key = f"{command} binding={binding} stdout"
                sha = gates.sha256_text(text)
                if self.seen.setdefault(key, sha) != sha:
                    bad.append(f"{key}: bytes differ between identical invocations")
                failures += bad
                artifacts[key] = sha
                size += len(text)
        return failures, artifacts, size


class CollapseTrials(Workload):
    """protocol.run_trial, the explicit-collapse route, one trial per operation."""

    trials_per_op = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.records = []

    def op(self, i, clock):
        with clock.timing():
            record = protocol.run_trial(self.trine, TrialRng.for_trial(self.seed, i), i)
        self.records.append(record)
        return [], {}, 0

    def finish(self):
        if not self.records:
            return []
        rows = sample_protocol(self.trine, max(r.trial for r in self.records) + 1, self.seed)
        return gates.check_collapse_rows(
            self.trine, self.seed, self.records, rows[[r.trial for r in self.records]]
        )


WORKLOADS = {
    "stream_records": StreamRecords,
    "sample_counts": SampleCounts,
    "exact_audit": ExactAudit,
    "collapse_trials": CollapseTrials,
}


_REFERENCE_MATRIX = np.full((36, 36), 1 / 36, dtype=complex)
_REFERENCE_WORDS = np.arange(1 << 16, dtype=np.uint64)


def reference_kernel() -> float:
    """Wall time of a fixed task of about 3.5 ms that uses no package code.

    On a shared virtual machine the host's speed drifts by 20% and more
    within seconds and over minutes, which a run of tens of seconds cannot
    average out.  This task is timed between
    operations as the yardstick for that speed.  It mixes the kinds of
    work the workloads do, so that it slows down when they do: small
    complex matrix products, JSON text, whole-array uint64 arithmetic
    and an interpreted loop.
    """
    start = time.perf_counter()
    x = _REFERENCE_MATRIX
    for _ in range(60):
        x = _REFERENCE_MATRIX @ x
    "\n".join([json.dumps({"trial": i, "seed": 7 * i, "value_A": "up", "orient_A": 120.0},
                          separators=(",", ":")) for i in range(150)])
    z = _REFERENCE_WORDS
    for _ in range(6):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    total = 0
    for j in range(15000):
        total += j
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload: Workload, seconds: float, tracer=None) -> dict:
    """Run operations until the next would overrun ``seconds``.

    Traced runs alternate: operation 2j is input j untraced, 2j+1 is input
    j traced.  An operation with any gate failure counts as failed.  The
    reference kernel runs between operations, once for every
    REFERENCE_INTERVAL_S of wall time, catching up after long ones; the
    start offsets of untraced operations and of reference runs are kept
    so that each operation can be set against the references near it.  Peak
    RSS is read after the first operation, which is what one CLI
    invocation uses; later operations raise the high-water mark by
    allocator fragmentation, by an amount that depends on how many ran.
    """
    walls = {False: [], True: []}
    failures, artifacts = [], {}
    failed = out_bytes = 0
    references, reference_times, op_times = [], [], []

    def reference_catch_up():
        while time.perf_counter() - start >= len(references) * REFERENCE_INTERVAL_S:
            reference_times.append(time.perf_counter() - start)
            references.append(reference_kernel())

    reference_kernel()  # the first call pays one-time costs: keep it out
    start = time.perf_counter()
    n = 0
    while True:
        reference_catch_up()
        op_start = time.perf_counter() - start
        traced = tracer is not None and n % 2 == 1
        clock = Clock(tracer if traced else None)
        if traced:
            tracer.begin_op()
        bad, made, size = workload.op(n // 2 if tracer is not None else n, clock)
        if traced:
            tracer.end_op(clock.wall)
        else:
            out_bytes += size
            op_times.append(op_start)
        walls[traced].append(clock.wall)
        failed += bool(bad)
        failures += bad
        artifacts.update(made)
        n += 1
        if n == 1:
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if elapsed * (n + 1) / n > seconds and (tracer is None or n % 2 == 0):
            break
    reference_catch_up()  # so the last operation has references after it too
    late = workload.finish()
    return {
        "attempted": n,
        "failed": failed + len(late),
        "failures": (failures + late)[:20],
        "walls": walls[False],
        "traced_walls": walls[True],
        "out_bytes": out_bytes,
        "artifacts": artifacts,
        "peak_rss_mb": rss,
        "op_times": op_times,
        "reference_walls": references,
        "reference_times": reference_times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = Path(cli.__file__).resolve().parent
    if package != (root / "src" / "toolate").resolve():
        print(f"toolate was imported from {package}, not from ./src", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, root / ".perfbench_tmp")
    try:
        result = measure(workload, args.seconds, tracer)
    finally:
        with contextlib.suppress(OSError):
            (root / ".perfbench_tmp").rmdir()
    result.update(
        workload=args.workload,
        trials_per_op=workload.trials_per_op,
        cmds_per_op=workload.cmds_per_op,
        computed=workload.computed_sizes(),
        trace=tracer.summary() if tracer is not None else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
