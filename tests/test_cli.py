import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import child_env
from oracles import records_text_reference
from toolate import _kernels
from toolate._kernels import CHUNK
from toolate.cli import build_parser, main, records_path
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


def test_console_script_is_the_main_the_tests_call():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["toolate"]
    assert target == "toolate.cli:main"
    # resolved as an installed console script resolves it
    entry = importlib.metadata.EntryPoint(name="toolate", value=target, group="console_scripts")
    assert entry.load() is main


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
        ("0,1e-9,240", False),  # the closest pair whose degrees still differ in labels
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


def test_near_coincident_orientations_give_zero_equal_value_pairs(capsys):
    assert main(["toolate", "--angles=0,0.000001,0.000002", "--trials", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    for pair in ("vA=up,vB=up", "vA=down,vB=down"):
        # label, exact and estimate: both are exactly 0
        assert any(line.startswith(f"P({pair}),0.0,0.0,") for line in lines)


@pytest.mark.parametrize("angles", ["0,0.0001,0.0002", "0,0.000001,0.000002"])
@pytest.mark.parametrize("command", ["erase", "verify"])
def test_zero_probability_is_one_error_line(capsys, command, angles):
    # the (up, up) conditional state, or the erasure, has zero weight
    assert main([command, f"--angles={angles}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("toolate: zero probability: ")
    assert "Traceback" not in captured.err


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
        records.write(b"partial\n")
        raise OSError("disk full")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_module, "run_toolate", failing_run)
    assert main(["toolate", "--trials", "10", "--out", "run.csv"]) == 3
    assert capsys.readouterr().err == "toolate: i/o error: disk full\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_angles_value(capsys):
    assert main(["epr", "--angles", "0,90,x,135"]) == 1


# labels and records name an orientation by its degrees to 9 decimals:
# below 1e-9 degrees apart, or equal modulo 360 yet a few ulps apart in
# radians, two orientations would share a label
@pytest.mark.parametrize("angles", ["0,1e-10,2e-10", "0,1e-13,240", "10,370,100"])
@pytest.mark.parametrize("command", ["toolate", "interfere", "erase", "verify"])
def test_orientations_whose_labels_coincide_are_refused(tmp_path, monkeypatch, capsys,
                                                         command, angles):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--angles", angles, "--trials", "10", "--out", "run.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "toolate: config error: orientations must differ in degrees rounded to 9 decimals"
    ]
    assert list(tmp_path.iterdir()) == []  # no run.csv, no records


def test_an_a_setting_may_share_its_label_with_a_b_setting(capsys):
    # each label names one A and one B setting, so E(0,0) is still one row
    assert main(["epr", "--angles", "0,90,1e-10,45", "--trials", "0"]) == 0
    labels = [line.rsplit(",", 4)[0] for line in capsys.readouterr().out.splitlines()[2:6]]
    assert labels == ["E(0,0)", "E(0,45)", "E(90,0)", "E(90,45)"]


def test_orientations_1e_4_degrees_apart_keep_distinct_labels(capsys):
    assert main(["toolate", "--angles", "0,0.0001,0.0002", "--trials", "10"]) == 0
    labels = [line.rsplit(",", 4)[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(labels) == len(set(labels))
    assert {"P(oA=0)", "P(oA=0.0001)", "P(oA=0.0002)"} <= set(labels)


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
        (None, ["epr", "--angles", "0,1e-10,45,135", "--trials", "0"], "settings on one side"),
        (None, ["epr", "--angles", "0,90,45,45.0000000001"], "settings on one side"),
        (None, ["toolate", "--angles", "0,,120,240"], "error: argument --angles:"),
        (None, ["toolate", "--port-binding", "2,,0,1"], "error: argument --port-binding:"),
        (None, ["toolate", "--angles", ","], "error: argument --angles:"),
        (None, ["verify", "--angles="], "error: argument --angles:"),
        (None, ["epr", "--angles", ""], "error: argument --angles:"),
        ('{"trials": null}', ["verify"], "trials"),
        ('{"trials": 1.7}', ["toolate"], "trials"),
        ('{"trials": true}', ["toolate"], "trials"),
        ('{"trials": "5"}', ["toolate"], "trials"),
        ('{"master_seed": true}', ["toolate"], "master_seed"),
        ('{"port_binding": 5}', ["verify"], "port_binding"),
        ('{"output_path": 5}', ["verify"], "output_path"),
        (None, ["epr", "--out", ""], "output_path"),
        ('{"output_path": ""}', ["toolate"], "output_path"),
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
        "epr-a-labels-coincide",
        "epr-b-labels-coincide",
        "angles-empty-part",
        "port-binding-empty-part",
        "angles-only-a-comma",
        "angles-empty-after-equals",
        "angles-empty-string",
        "trials-null",
        "trials-fraction",
        "trials-bool",
        "trials-string",
        "seed-bool",
        "port-binding-number",
        "output-path-number",
        "output-path-empty-flag",
        "output-path-empty-config",
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
EMPTY = hashlib.sha256(b"").hexdigest()
PINNED = {
    "toolate run.csv": "590917c41a7a54d534af0868747ddf63f1aaf832e9b4be6a28769002727b31c7",
    "toolate run.records.jsonl": "511b84d48733c10495709cdb0b3128ee1ae4c6c3868c95e1f0f8982797e67b32",
    "toolate stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "epr stdout": "6b08f55d1ac769deebb095a5c7a34c3c9478615088aa0098dad519919387bdcc",
    # 131073 = 8 * 16384 + 1 trials: nine chunks per row, the last of one trial
    "epr 131073 stdout": "077af29313565b730f4c9556586126d063e9863fd8eeb84f77128d5f1577974e",
    "verify stdout": "324731b3d5d927bb4988a58bfa341f9ae7e71077049fd09da3bb50db68929d6d",
    "lhv stdout": "eb30cc04f471aa28b7c6cfe80ed24865a22c891e6b16c3d1f7aa78b8aead96d1",
    "interfere stdout": "a7b0f6f46162731edb7e874079ae22d244fb767901d5a2e60f3ec1e73266b856",
    # nine chunks, the last of one trial
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
    "uneven verify stdout": "0bfa51e39b40d6471c819dff03bd139b7db41567753b43a18038be6018a47842",
    "uneven interfere stdout": "a6359cb81509429b411d197a39d5bcb28c654fb2352423d2c553d2a8142c79ff",
    "uneven erase stdout": "b3142e88dfabfcbdfff3fa31e042525a0ba490b23a94e4e6bc6f129c95483ad1",
    # an uneven trine whose degrees print as decimals, across a chunk boundary
    "decimal toolate run.csv": "e426ace7e1fd0adbaa6bd836e8b9ab42defc2c07cb22febecca8548a63214b09",
    "decimal toolate run.records.jsonl":
        "ce0dcffb8ce04e9f682ea7b92652d590beee688bf8c6e30237bba3e4cbf49a9a",
    # equal settings: zero-width uu and dd intervals, threshold 0 and a
    # repeated one, over nine chunks per row
    "edge epr 131073 stdout": "360379502beadfcbf09f676fd83ed58e66c3404535812e20152fd6324d07a004",
    # near-coincident orientations: stage rows with zero entries
    "near toolate run.csv": "97373a4aa7006aeea391e2b51b398c710141e04b89aea68a4ed803378ec90635",
    "near toolate run.records.jsonl":
        "fd2ec5f624f641cf48a1351c625ec79afe7be45ec0415d0a0812cc5f27cac96c",
}
BOUND = ["--angles", "10,130,250", "--port-binding", "2,0,1"]
UNEVEN = ["--angles", "0,90,200", "--port-binding", "1,2,0"]
DECIMAL = ["--angles", "33.3,100,271.5", "--port-binding", "2,0,1"]


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
    assert main(["epr", "--trials", "131073", "--seed", "42"]) == 0
    got["epr 131073 stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    assert main(["epr", "--angles", "0,90,360,450", "--trials", "131073", "--seed", "42"]) == 0
    got["edge epr 131073 stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    for prefix, argv in (
        ("toolate 131073", ["toolate", "--trials", "131073", "--seed", "42", "--out", "run.csv"]),
        ("bound toolate", ["toolate", "--trials", "20000", "--seed", "42", "--out", "run.csv"] + BOUND),
        ("decimal toolate", ["toolate", "--trials", "70000", "--seed", "8", "--out", "run.csv"] + DECIMAL),
        ("near toolate", ["toolate", "--angles", "0,0.0001,0.0002", "--trials", "70001",
                          "--seed", "3", "--out", "run.csv"]),
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


# exit code and sha256 of (stdout, stderr) for help and usage errors,
# at an 80-column terminal; the parser builds only the invoked
# subcommand's arguments, and none of this may change
USAGE_PINNED = {
    "toolate --help": (0, "7464b5e8417c98448afbc3ed51da3f7c28737f6927e0a36ef407c816f870d107", EMPTY),
    "toolate epr --help": (0, "49e43f3f71477c23802e05e13ad141423e10754a50282e759fb579a4e3a7f4e8", EMPTY),
    "toolate toolate --help":
        (0, "3bfa633eaee0c177ad5430e346d8b542cfcfee6cd9a3df86b406099d9026c1d3", EMPTY),
    "toolate interfere --help":
        (0, "00a68a78c34046a38ae19a4d9671ae47bcde60a3420cb8453945901910290abb", EMPTY),
    "toolate erase --help": (0, "2afa54607d936deabd95db6a9217e3c002c6f51df2f3f5cdc114637105c01bd0", EMPTY),
    "toolate lhv --help": (0, "a751228dfb1b9c07c55f6b8271db3d1626cb6e0b6cf33fae89852fbef4e54597", EMPTY),
    "toolate verify --help":
        (0, "367a8dcf32c8496b9a51cacd44d881a9d111e200b4677c24e5f080caeeea65f9", EMPTY),
    "toolate nope": (1, EMPTY, "8863385940b40f22cebd0670d049e4089053b3c97cf074a707fb54c1d48f581e"),
    "toolate epr --bogus": (1, EMPTY, "40d860d0795c984766cd36f2a79a0085419386b2c892b1f74830e1aec0b4abeb"),
    "toolate toolate verify":
        (1, EMPTY, "10275fe00b6f30428fa1902ff68782d82b104fd909e9bf06373feb3f617fdda5"),
    "toolate": (1, EMPTY, "4665138502741e97bc666a1a412253bc417ea77ce35fa2eee74a07b0efbf7a9a"),
    # a subcommand named after a flag, or after another subcommand
    "toolate --help verify":
        (0, "7464b5e8417c98448afbc3ed51da3f7c28737f6927e0a36ef407c816f870d107", EMPTY),
    "toolate -x verify": (1, EMPTY, "63cc16948cdd8071f533d55d453a10d3187fbde511478cb971c7ee4b5d2828fe"),
    "toolate --seed 1 toolate":
        (1, EMPTY, "f34f61bcc87aa18db9ecbe307f16916052d62f5e62f76775db85fe8ca336aaba"),
    "toolate erase toolate": (1, EMPTY, "dc64f53dd665e4d1ec99f7e5b36f14fb274578f6c809788039e067837ea933ee"),
}


def registered(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", ["verify", "epr"])
def test_parser_registers_only_the_named_subcommand(command):
    assert registered(build_parser(command)) == [command]


@pytest.mark.parametrize("command", [None, "nope", "--help"])
def test_parser_without_a_subcommand_registers_all_six(command):
    assert registered(build_parser(command)) == ["epr", "toolate", "interfere", "erase", "lhv", "verify"]


def test_help_and_usage_errors_match_pinned_hashes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    got = {}
    for name in USAGE_PINNED:
        try:
            code = main(name.split()[1:])
        except SystemExit as exc:  # --help prints and exits
            code = exc.code
        captured = capsys.readouterr()
        got[name] = (code, sha(captured.out), sha(captured.err))
    assert got == USAGE_PINNED


# around one chunk, and around runs of several: 65536 and 131072 are 4 and 8 chunks of 16384
@pytest.mark.parametrize(
    "trials", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 65535, 65536, 65537, 131075]
)
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


def chunked_artifacts(directory: Path, monkeypatch, capsys) -> dict:
    directory.mkdir()
    monkeypatch.chdir(directory)
    argv = ["toolate", "--trials", "70001", "--seed", str(2**64 - 1), "--out", "run.csv"]
    assert main(argv) == 0
    assert main(["epr", "--trials", "70001", "--seed", "42"]) == 0
    got = {"stdout": capsys.readouterr().out.encode("utf-8")}
    for name in ("run.csv", "run.records.jsonl"):
        got[name] = (directory / name).read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}


@pytest.mark.parametrize("chunk", [1000, 1 << 14, 1 << 16])
def test_chunk_size_changes_no_byte(tmp_path, monkeypatch, capsys, chunk):
    # each trial's draws depend only on (master seed, trial), so the
    # artifacts are the same bytes at any batch size
    want = chunked_artifacts(tmp_path / "default", monkeypatch, capsys)
    monkeypatch.setattr(_kernels, "CHUNK", chunk)
    assert chunked_artifacts(tmp_path / "chunked", monkeypatch, capsys) == want


def test_records_run_holds_a_bounded_python_heap(tmp_path):
    # 300000 trials make 33 MB of records.  Written while sampling, a
    # thousand-trial block at a time, the traced peak is 1.3 MB, as for a
    # run without --out.  One format per chunk peaked at 5.2 MB at
    # 16384-trial chunks and 20.6 MB at 65536; a whole outcome array at
    # 31 MB, and the whole text built first at 127 MB.
    tracemalloc.start()
    try:
        code = main(["toolate", "--trials", "300000", "--out", str(tmp_path / "run.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10e6


def test_table_run_holds_a_bounded_python_heap():
    # tabulated chunk by chunk, 1e6 trials peak near 1.3 MB traced at
    # 16384-trial chunks and 4.5 MB at 65536; a (trials, 4) int64 outcome
    # array and its cell index made it 48 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["toolate", "--trials", "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4e6


# Linux carries the forking process's peak into a child's ru_maxrss across
# exec, so the child reads the peak of its own image, VmHWM, instead
def child_run(argv: list[str], cwd: Path) -> tuple[float, int]:
    """Run ``main(argv)`` in a child process: its peak RSS in MB, and
    the minor page faults taken inside ``main``."""
    child = (
        "import resource, sys\n"
        "from toolate.cli import main\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"code = main({argv!r})\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1], faults, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kb, faults = proc.stderr.split()
    assert code == "0"
    return int(peak_kb) / 1024, int(faults)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_table_run_peak_rss_does_not_grow_with_trials(tmp_path):
    # the whole process, numpy included, peaks near 32 MB at any trial
    # count (36 MB at 65536-trial chunks); a (4e6, 4) int64 outcome array
    # alone would be 128 MB
    assert child_run(["toolate", "--trials", "4000000"], tmp_path)[0] < 100


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_records_run_peak_rss_stays_near_one_chunk(tmp_path):
    # 300000 trials make 33 MB of records, written a thousand-trial block
    # at a time: the whole process peaks near 32 MB, as a run without
    # --out does.  One bytes per 16384-trial chunk peaked near 36 MB, and
    # per 65536-trial chunk near 57 MB, where each chunk's records and
    # their format arguments came to 20 MB
    argv = ["toolate", "--trials", "300000", "--out", "run.csv"]
    assert child_run(argv, tmp_path)[0] < 42


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_records_run_page_faults_do_not_grow_with_trials(tmp_path):
    # written in blocks of at most 1000 lines, about 110 KB, the records
    # reuse the same memory: about 150 minor faults inside main at either
    # trial count.  A new 1.8 MB bytes per 16384-trial chunk took about
    # 3.8k faults at 62500 trials and 58k at 1e6
    small = child_run(["toolate", "--trials", "62500", "--out", "run.csv"], tmp_path)[1]
    large = child_run(["toolate", "--trials", "1000000", "--out", "run.csv"], tmp_path)[1]
    assert abs(large - small) < 1000, (small, large)
