import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from oracles import records_text_reference
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


def test_bad_angles_value(capsys):
    assert main(["epr", "--angles", "0,90,x,135"]) == 1


def test_bad_port_binding(capsys):
    assert main(["toolate", "--port-binding", "0,0,1", "--trials", "0"]) == 1


@pytest.mark.parametrize(
    "config_text, argv, mentions",
    [
        ("[1, 2]", ["verify"], "JSON object"),
        ('"verify"', ["verify"], "JSON object"),
        (None, ["verify", "--threshold", "nan"], "threshold"),
        (None, ["verify", "--threshold", "-1"], "threshold"),
        (None, ["verify", "--threshold", "1.5"], "threshold"),
        ('{"threshold": null}', ["verify"], "threshold"),
        ('{"angles": 5}', ["verify"], "angles"),
        ('{"angles": [0, 120, 1e400]}', ["verify"], "angles"),
        (None, ["verify", "--angles", "0,120,nan"], "angles"),
        (None, ["epr", "--angles", "0,90,nan,135"], "angles"),
        (None, ["verify", "--angles", "0,90,45,135"], "angles"),
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
        "threshold-nan",
        "threshold-negative",
        "threshold-above-one",
        "threshold-null",
        "angles-number",
        "angles-overflow",
        "angles-nan",
        "chsh-angles-nan",
        "verify-four-angles",
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
    # 131073 = 2 * 65536 + 1 trials: three chunks, the last of one trial
    "toolate 131073 run.csv": "ff7114b14be46a1af47c506de9fc3e9a5ee3fcad95af75500530ec0f5cdf1f41",
    "toolate 131073 run.records.jsonl":
        "948ef8e2806c785360241063e719cba0c37570601419b02b2dc27b2ccc961788",
}


def test_artifacts_match_pinned_hashes(tmp_path, monkeypatch, capsys):
    # a relative --out keeps the echoed output_path independent of tmp_path
    monkeypatch.chdir(tmp_path)
    sha = lambda data: hashlib.sha256(data).hexdigest()
    got = {}
    for argv in (
        ["toolate", "--trials", "20000", "--seed", "42", "--out", "run.csv"],
        ["epr", "--trials", "20000", "--seed", "42"],
        ["verify"],
    ):
        assert main(argv) == 0
        got[f"{argv[0]} stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    for name in ("run.csv", "run.records.jsonl"):
        got[f"toolate {name}"] = sha((tmp_path / name).read_bytes())
    chunked = tmp_path / "chunked"
    chunked.mkdir()
    monkeypatch.chdir(chunked)
    assert main(["toolate", "--trials", "131073", "--seed", "42", "--out", "run.csv"]) == 0
    for name in ("run.csv", "run.records.jsonl"):
        got[f"toolate 131073 {name}"] = sha((chunked / name).read_bytes())
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
    # 300000 trials make 33 MB of records text and a 9.6 MB outcome array.
    # Written in chunks, the traced peak is the array plus about one
    # chunk's lines and text: 31 MB.  Built whole, it was 127 MB.
    tracemalloc.start()
    try:
        code = main(["toolate", "--trials", "300000", "--out", str(tmp_path / "run.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 48e6
