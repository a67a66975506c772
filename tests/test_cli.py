import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from oracles import records_text_reference
import toolate
from toolate._kernels import CHUNK
from toolate.cli import main, records_path
from toolate.experiments import ExperimentConfig, metadata, sample_protocol


def read_csv_rows(path: Path) -> dict:
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# meta: ")
    header = lines[1].split(",")
    rows = {}
    for line in lines[2:]:
        parts = line.split(",")
        rows[parts[0]] = dict(zip(header, parts))
    return rows


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["epr", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert main([]) == 1


def test_epr_exact_csv_contains_the_chsh_row(tmp_path):
    out = tmp_path / "epr.csv"
    code = main(["epr", "--angles", "0,90,45,135", "--trials", "0", "--out", str(out)])
    assert code == 0
    rows = read_csv_rows(out)
    assert abs(float(rows["chsh_abs_S"]["exact"]) - 2 * math.sqrt(2)) < 1e-9
    assert rows["chsh_abs_S"]["estimate"] == ""


def test_toolate_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a" / "run.csv"
    out_b = tmp_path / "b" / "run.csv"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    args = ["toolate", "--trials", "20000", "--seed", "42"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    # paths differ only in the echoed output location
    fix = lambda p, t: t.replace(str(p.parent), "DIR")
    assert fix(out_a, out_a.read_text()) == fix(out_b, out_b.read_text())
    rec_a = Path(records_path(str(out_a))).read_text()
    rec_b = Path(records_path(str(out_b))).read_text()
    assert fix(out_a, rec_a) == fix(out_b, rec_b)
    # and a true rerun to the same path is bit-for-bit identical
    before = out_a.read_bytes()
    assert main(args + ["--out", str(out_a)]) == 0
    assert out_a.read_bytes() == before


@pytest.mark.parametrize(
    "command, angles, zero_angles",
    [
        ("toolate", "-0,120,240", "0,120,240"),
        ("toolate", "-360,120,240", "0,120,240"),
        ("epr", "-0,90,45,135", "0,90,45,135"),
    ],
)
def test_angles_at_negative_zero_print_as_zero(tmp_path, command, angles, zero_angles):
    # both runs give the same bytes after each file's first line, the echoed config
    texts = []
    for given in (angles, zero_angles):
        out = tmp_path / given
        out.mkdir()
        argv = [command, f"--angles={given}", "--trials", "300", "--seed", "4"]
        assert main(argv + ["--out", str(out / "run.csv")]) == 0
        texts.append({f.name: f.read_text().split("\n", 1)[1] for f in out.iterdir()})
    assert texts[0] == texts[1]


def test_seed_changes_the_outcome_stream(tmp_path):
    out = tmp_path / "run.csv"
    main(["toolate", "--trials", "1000", "--seed", "1", "--out", str(out)])
    first = Path(records_path(str(out))).read_text()
    main(["toolate", "--trials", "1000", "--seed", "2", "--out", str(out)])
    second = Path(records_path(str(out))).read_text()
    assert first != second


def test_verify_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["audit"]["equations"]


CLOSED_FORMS_120 = {
    "value_pairs_quarter",
    "conditional_orientation_anticorrelation",
    "recombination_ports",
    "interference_discrimination",
}


@pytest.mark.parametrize("binding", ["0,1,2", "2,0,1"])
@pytest.mark.parametrize(
    "angles, apart_120",
    [
        ("0,90,200", False),
        ("0,0.1,240", False),
        ("0,1e-13,240", False),
        ("0,120,240.0000001", False),
        ("10,130,250", True),
        ("-120,0,120", True),
        ("0,240,120", True),
    ],
)
def test_verify_gates_closed_forms_only_on_120_degree_trines(capsys, angles, binding, apart_120):
    assert main(["verify", f"--angles={angles}", "--port-binding", binding]) == 0
    payload = json.loads(capsys.readouterr().out)
    gated = {c["name"] for c in payload["checks"]}
    reported = {c["name"]: c["pass"] for c in payload["reported_only"].get("checks", [])}
    assert payload["ok"] is True and all(c["pass"] for c in payload["checks"])
    if apart_120:
        assert CLOSED_FORMS_120 <= gated and reported == {}
    else:
        # every other check still gates; the closed forms are reported, and
        # some fail (1/4 still holds to 1e-12 on 0,120,240.0000001)
        assert len(gated) == 8 and not gated & CLOSED_FORMS_120
        assert set(reported) == CLOSED_FORMS_120 and not all(reported.values())


def test_verify_failure_maps_to_exit_two(tmp_path, monkeypatch):
    import toolate.cli as cli_module

    monkeypatch.setattr(cli_module, "run_verify", lambda config: ({"ok": False}, False))
    assert main(["verify", "--out", str(tmp_path / "r.json")]) == 2


def test_stdout_mode(capsys):
    assert main(["epr", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# meta: ")
    assert "chsh_abs_S" in out


def test_config_file_with_flag_overrides(tmp_path):
    config = {
        "protocol": "toolate",
        "angles": [0, 120, 240],
        "trials": 7,
        "master_seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run.csv"
    assert main(["toolate", "--config", str(path), "--trials", "3", "--out", str(out)]) == 0
    meta = json.loads(out.read_text().split("\n")[0][len("# meta: "):])
    assert meta["config"]["trials"] == 3  # flag wins
    assert meta["config"]["master_seed"] == 5  # file survives

    records = Path(records_path(str(out))).read_text().strip().split("\n")
    assert len(records) == 1 + 3


def test_config_protocol_mismatch(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"protocol": "toolate"}))
    assert main(["epr", "--config", str(path)]) == 1


def test_bad_config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["toolate", "--config", str(path)]) == 1


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["toolate", "--config", str(tmp_path / "nope.json")]) == 3


def test_unwritable_output_is_io_error(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["epr", "--trials", "0", "--out", str(target)]) == 3


def test_directory_as_out_fails_before_any_records_file(tmp_path, capsys):
    # records are written while sampling, so the table's target must be opened first
    target = tmp_path / "out"
    target.mkdir()
    assert main(["toolate", "--trials", "10", "--out", str(target)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("toolate:")]
    assert len(errors) == 1 and errors[0].startswith("toolate: i/o error:")
    assert list(tmp_path.rglob("*.records.jsonl")) == []


def test_failed_run_leaves_no_table_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.records.jsonl").mkdir()
    assert main(["toolate", "--trials", "10", "--out", "run.csv"]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("toolate:")]
    assert len(errors) == 1 and errors[0].startswith("toolate: i/o error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.records.jsonl"]


def test_write_failure_while_sampling_removes_both_files(tmp_path, monkeypatch, capsys):
    import toolate.cli as cli_module

    def failing_run(config, records):
        records.write("partial\n")
        raise OSError("disk full")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_module, "run_toolate", failing_run)
    assert main(["toolate", "--trials", "10", "--out", "run.csv"]) == 3
    assert capsys.readouterr().err == "toolate: i/o error: disk full\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_angles_value(capsys):
    assert main(["epr", "--angles", "0,90,x,135"]) == 1


def test_bad_port_binding(capsys):
    assert main(["toolate", "--port-binding", "0,0,1", "--trials", "0"]) == 1


@pytest.mark.parametrize(
    "config_text, argv, mentions",
    [
        ("[1, 2]", ["verify"], "JSON object"),
        ('"verify"', ["verify"], "JSON object"),
        ("[" * 100000 + "]" * 100000, ["verify"], "not valid JSON"),
        (None, ["verify", "--threshold", "nan"], "threshold"),
        (None, ["verify", "--threshold", "-1"], "threshold"),
        (None, ["verify", "--threshold", "1.5"], "threshold"),
        ('{"threshold": null}', ["verify"], "threshold"),
        ('{"angles": 5}', ["verify"], "angles"),
        ('{"angles": [0, 120, 1e400]}', ["verify"], "angles"),
        (None, ["verify", "--angles", "0,120,nan"], "angles"),
        (None, ["epr", "--angles", "0,90,nan,135"], "angles"),
        (None, ["verify", "--angles", "0,90,45,135"], "angles"),
        (None, ["toolate", "--angles", "0,360,120"], "distinct"),
        ('{"trials": null}', ["verify"], "trials"),
        ('{"trials": 1.7}', ["toolate"], "trials"),
        ('{"trials": true}', ["toolate"], "trials"),
        ('{"trials": "5"}', ["toolate"], "trials"),
        ('{"master_seed": true}', ["toolate"], "master_seed"),
        ('{"port_binding": 5}', ["verify"], "port_binding"),
        ('{"output_path": 5}', ["verify"], "output_path"),
    ],
    ids=[
        "config-array",
        "config-string",
        "config-nested-past-recursion-limit",
        "threshold-nan",
        "threshold-negative",
        "threshold-above-one",
        "threshold-null",
        "angles-number",
        "angles-overflow",
        "angles-nan",
        "chsh-angles-nan",
        "verify-four-angles",
        "toolate-orientations-equal-modulo-360",
        "trials-null",
        "trials-fraction",
        "trials-bool",
        "trials-string",
        "seed-bool",
        "port-binding-number",
        "output-path-number",
    ],
)
def test_bad_config_boundary_is_one_error_line(tmp_path, capsys, config_text, argv, mentions):
    args = list(argv)
    if config_text is not None:
        path = tmp_path / "config.json"
        path.write_text(config_text)
        args += ["--config", str(path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("toolate:")]
    assert len(errors) == 1
    assert mentions in errors[0]


# sha256 of artifacts and stdout; a change here changes the bytes users get
PINNED = {
    "toolate run.csv": "590917c41a7a54d534af0868747ddf63f1aaf832e9b4be6a28769002727b31c7",
    "toolate run.records.jsonl": "511b84d48733c10495709cdb0b3128ee1ae4c6c3868c95e1f0f8982797e67b32",
    "toolate stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "epr stdout": "6b08f55d1ac769deebb095a5c7a34c3c9478615088aa0098dad519919387bdcc",
    "verify stdout": "ee5895db8b262568e39ce856ce621ad52fad7d7e020885db37f8f1f8d4ceacb8",
    "lhv stdout": "eb30cc04f471aa28b7c6cfe80ed24865a22c891e6b16c3d1f7aa78b8aead96d1",
    "interfere stdout": "a7b0f6f46162731edb7e874079ae22d244fb767901d5a2e60f3ec1e73266b856",
    # 131073 = 2 * 65536 + 1 trials: three chunks, the last of one trial
    "toolate 131073 run.csv": "ff7114b14be46a1af47c506de9fc3e9a5ee3fcad95af75500530ec0f5cdf1f41",
    "toolate 131073 run.records.jsonl":
        "948ef8e2806c785360241063e719cba0c37570601419b02b2dc27b2ccc961788",
    "erase stdout": "d23c5d189fea1252abc016fc73b81338ca06ddacbb5ae7a8ac9beccb878edf79",
    # a trine off the default, with ports re-bound
    "bound toolate run.csv": "b71c712db78d48b059821b0f18e7d1b223cc4170ece0dd912ea5f636c2fce742",
    "bound toolate run.records.jsonl":
        "25e7de4df54fa37882225960931fbee9a0dcc450f533a984175495df4cc69744",
    "bound verify stdout": "73f8549f7c695c16ee5f9a60648b2bf12cd0528811a086b64a79f3ffd6ea2a51",
    "bound interfere stdout": "bbaffe801a56251881371f501c48ec576436f43049921aac8680559a753e3798",
    "bound erase stdout": "a4e94927f41b18d89c544adb33dbc693a297ae6bbc1a1f6de28a473b6bcafe83",
    # a trine not 120 degrees apart: verify reports the closed forms only
    "uneven verify stdout": "b52e0dcedf8ca50c87b26117c07e5ed068c5bbd5f9569653e09d51af395578d1",
    "uneven interfere stdout": "a6359cb81509429b411d197a39d5bcb28c654fb2352423d2c553d2a8142c79ff",
    "uneven erase stdout": "b3142e88dfabfcbdfff3fa31e042525a0ba490b23a94e4e6bc6f129c95483ad1",
}
BOUND = ["--angles", "10,130,250", "--port-binding", "2,0,1"]
UNEVEN = ["--angles", "0,90,200", "--port-binding", "1,2,0"]


def test_artifacts_match_pinned_hashes(tmp_path, monkeypatch, capsys):
    # a relative --out keeps the echoed output_path independent of tmp_path
    monkeypatch.chdir(tmp_path)
    sha = lambda data: hashlib.sha256(data).hexdigest()
    got = {}
    for argv in (
        ["toolate", "--trials", "20000", "--seed", "42", "--out", "run.csv"],
        ["epr", "--trials", "20000", "--seed", "42"],
        ["verify"],
        ["lhv"],
        ["interfere"],
        ["erase"],
    ):
        assert main(argv) == 0
        got[f"{argv[0]} stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    for name in ("run.csv", "run.records.jsonl"):
        got[f"toolate {name}"] = sha((tmp_path / name).read_bytes())
    for prefix, argv in (
        ("toolate 131073", ["toolate", "--trials", "131073", "--seed", "42", "--out", "run.csv"]),
        ("bound toolate", ["toolate", "--trials", "20000", "--seed", "42", "--out", "run.csv"] + BOUND),
    ):
        subdir = tmp_path / prefix.replace(" ", "_")
        subdir.mkdir()
        monkeypatch.chdir(subdir)
        assert main(argv) == 0
        for name in ("run.csv", "run.records.jsonl"):
            got[f"{prefix} {name}"] = sha((subdir / name).read_bytes())
    for prefix, flags in (("bound", BOUND), ("uneven", UNEVEN)):
        for command in ("verify", "interfere", "erase"):
            assert main([command] + flags) == 0
            got[f"{prefix} {command} stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    assert got == PINNED


@pytest.mark.parametrize("trials", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_streamed_records_match_whole_text_reference(tmp_path, monkeypatch, trials):
    monkeypatch.chdir(tmp_path)
    assert main(["toolate", "--trials", str(trials), "--seed", "7", "--out", "run.csv"]) == 0
    config = ExperimentConfig("toolate", trials=trials, master_seed=7, output_path="run.csv")
    trine = config.trine()
    outcomes = sample_protocol(trine, trials, 7)
    want = records_text_reference(trine.orientations, outcomes, metadata(config)).split("\n")
    got = (tmp_path / "run.records.jsonl").read_bytes().decode("utf-8").split("\n")
    # compared line by line: pytest's diff of two whole texts would take minutes
    assert len(got) == len(want)
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"


def test_records_run_holds_a_bounded_python_heap(tmp_path):
    # 300000 trials make 33 MB of records text.  Written while sampling,
    # one chunk at a time, the traced peak is about one chunk's fields and
    # text: 21 MB.  With a whole outcome array it was 31 MB, and with the
    # whole text built first, 127 MB.
    tracemalloc.start()
    try:
        code = main(["toolate", "--trials", "300000", "--out", str(tmp_path / "run.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32e6


def test_table_run_holds_a_bounded_python_heap():
    # tabulated chunk by chunk, 1e6 trials peak near 8 MB traced; a
    # (trials, 4) int64 outcome array and its cell index made it 48 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["toolate", "--trials", "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16e6


# Linux carries the forking process's peak into a child's ru_maxrss across
# exec, so the child reads the peak of its own image, VmHWM, instead
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_table_run_peak_rss_does_not_grow_with_trials():
    # the whole process, numpy included, peaks near 40 MB at any trial
    # count; a (4e6, 4) int64 outcome array alone would be 128 MB
    child = (
        "import sys\n"
        "from toolate.cli import main\n"
        "code = main(['toolate', '--trials', '4000000'])\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1], file=sys.stderr)\n"
    )
    src = str(Path(toolate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kb = proc.stderr.split()
    assert code == "0"
    assert int(peak_kb) / 1024 < 100
