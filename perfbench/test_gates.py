"""The benchmark's own checks: every oracle gate passes on real artifacts and
trips on a tampered copy, the tracer sees every binding, and BENCHMARK.json
names the metrics run.py prints.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from toolate import cli, experiments, qcore
from toolate.experiments import ExperimentConfig, sample_protocol
from toolate.protocol import run_trial
from toolate.rng import TrialRng

import gates
import run
from tracer import Tracer

TRIALS = 4000
SEED = 5
ROOT = Path(__file__).resolve().parents[1]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    here = tmp_path_factory.mktemp("artifacts")
    assert cli.main(["toolate", "--trials", str(TRIALS), "--seed", str(SEED),
                     "--out", str(here / "run.csv")]) == 0
    return {
        "csv": (here / "run.csv").read_text(encoding="utf-8"),
        "records": here / "run.records.jsonl",
        "epr": _stdout(["epr", "--trials", str(TRIALS), "--seed", str(SEED)]),
        "epr_exact": _stdout(["epr", "--trials", "0", "--port-binding", "2,0,1"]),
        "verify": _stdout(["verify", "--trials", "0", "--port-binding", "1,2,0"]),
    }


def _trine():
    return ExperimentConfig("toolate").trine()


def _edit_row(text: str, label: str, column: int, value: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.rsplit(",", 4)
        if cells[0] == label:
            cells[column] = value
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise KeyError(label)


def test_gates_pass_on_untampered_artifacts(made):
    assert gates.check_exit("toolate", 0) == []
    assert gates.check_toolate_csv(made["csv"], TRIALS) == []
    failures, sha, size = gates.check_records_file(made["records"], TRIALS, SEED, _trine())
    assert failures == []
    assert size == made["records"].stat().st_size
    assert sha == gates.sha256_text(made["records"].read_text(encoding="utf-8"))
    assert gates.check_epr_csv(made["epr"], TRIALS) == []
    assert gates.check_epr_csv(made["epr_exact"], 0) == []
    assert gates.check_verify_json(made["verify"]) == []


def test_exit_gate_trips():
    assert gates.check_exit("verify", 2)


def test_records_line_count_gate_trips(made, tmp_path):
    lines = made["records"].read_text(encoding="utf-8").splitlines(keepends=True)
    short = tmp_path / "short.jsonl"
    short.write_text("".join(lines[:-1]), encoding="utf-8")
    failures, _, _ = gates.check_records_file(short, TRIALS, SEED, _trine())
    assert any("lines" in f for f in failures)


def test_records_collapse_gate_trips(made, tmp_path):
    lines = made["records"].read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[1])
    first["value_A"] = "down" if first["value_A"] == "up" else "up"
    lines[1] = json.dumps(first, separators=(",", ":")) + "\n"
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(lines), encoding="utf-8")
    failures, _, _ = gates.check_records_file(tampered, TRIALS, SEED, _trine())
    assert any("trial 0 " in f for f in failures)


def test_exact_column_gates_trip(made):
    csv = _edit_row(made["csv"], "P(vA=up,vB=up)", 1, "0.3")
    assert any("closed form" in f for f in gates.check_toolate_csv(csv, TRIALS))
    csv = _edit_row(made["csv"], "P(oA=0,oB=0|vA=up,vB=down)", 1, repr(1 / 6))
    assert any("closed form" in f for f in gates.check_toolate_csv(csv, TRIALS))
    epr = _edit_row(made["epr_exact"], "E(0,45)", 1, "0.7071067811865476")
    assert any("closed form" in f for f in gates.check_epr_csv(epr, 0))
    dropped = "".join(made["csv"].splitlines(keepends=True)[:-1])
    assert any("rows" in f for f in gates.check_toolate_csv(dropped, TRIALS))


def test_estimate_gates_trip(made):
    _, rows = gates.parse_csv(made["csv"])
    label, exact, _, stderr, _ = next(r for r in rows if r[1] != 0.0)
    far = _edit_row(made["csv"], label, 2, repr(exact + 6 * stderr))
    assert any("stderr" in f for f in gates.check_toolate_csv(far, TRIALS))
    zero = _edit_row(made["csv"], "P(oA=0,oB=0|vA=up,vB=up)", 2, "0.001")
    assert any("exactly 0" in f for f in gates.check_toolate_csv(zero, TRIALS))
    _, rows = gates.parse_csv(made["epr"])
    label, exact, _, stderr, _ = rows[0]
    far = _edit_row(made["epr"], label, 2, repr(exact - 6 * stderr))
    assert any("stderr" in f for f in gates.check_epr_csv(far, TRIALS))


def test_verify_gate_trips(made):
    report = json.loads(made["verify"])
    report["ok"] = False
    assert gates.check_verify_json(json.dumps(report))
    assert gates.check_verify_json("not json")


def test_collapse_rows_gate(made):
    trine = _trine()
    records = [run_trial(trine, TrialRng.for_trial(SEED, i), i) for i in range(6)]
    rows = sample_protocol(trine, 6, SEED)
    assert gates.check_collapse_rows(trine, SEED, records, rows) == []
    tampered = rows.copy()
    tampered[3, 2] = (tampered[3, 2] + 2) % 6  # same value, another orientation
    assert any("trial 3 " in f for f in gates.check_collapse_rows(trine, SEED, records, tampered))


def test_tracer_wraps_from_imports_and_bare_names():
    original = qcore.is_projector
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert experiments.stage_conditionals is not original  # from-import binding wrapped
        sample_protocol(_trine(), 10, SEED)
        experiments.sample_protocol(_trine(), 10, SEED)
        tracer.end_op(1.0)
    finally:
        tracer.uninstall()
    assert qcore.is_projector is original
    functions = tracer.summary()["functions"]
    # the test module's own binding of sample_protocol is not the package's
    assert functions["experiments.sample_protocol"]["calls"] == 1
    assert functions["protocol.stage_conditionals"]["calls"] == 2
    assert functions["protocol.stage_conditionals"]["distinct_ratio"] == 0.5
    # qcore.project calls is_projector by its bare name
    assert functions["qcore.is_projector"]["calls"] >= functions["qcore.project"]["calls"] > 0
    assert all(f["self_s"] >= 0.0 for f in functions.values())


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        proj = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        for _ in range(50):
            qcore.project(proj, state)
        tracer.end_op(10.0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    total = sum(end - start for index, start, end, parent in tracer.spans if parent < 0)
    self_total = sum(f["self_s"] for f in summary["functions"].values())
    assert self_total == pytest.approx(total, rel=1e-9)
    assert summary["untraced_s"] == pytest.approx(10.0 - total)


def test_reference_ratios_use_the_references_near_each_operation():
    child = {
        "op_times": [0.0, 10.0],
        "walls": [1.0, 2.0],
        "reference_times": [0.0, 0.5, 5.0, 9.5, 12.5],
        "reference_walls": [0.01, 0.03, 9.0, 0.02, 0.04],
    }
    # the reference at 5.0 s is more than 1 s from both operations
    assert run.reference_ratios(child) == pytest.approx([1.0 / 0.02, 2.0 / 0.03])


def test_benchmark_json_matches_run_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
