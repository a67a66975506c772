"""The console entry point run in a child process, as the installed
``toolate`` command runs it: the process exit code, its stderr lines,
the files a run writes or a refused run leaves behind, and the labels
and rows of its tables."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

CONSOLE = "import sys; from toolate.cli import main; sys.exit(main())"


def console(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``toolate *argv`` in a child process started in ``cwd``."""
    return subprocess.run(
        [sys.executable, "-c", CONSOLE, *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_config_error(proc: subprocess.CompletedProcess) -> None:
    """Exit 1 and one config-error line on stderr, never a traceback."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("toolate: config error: "), lines


def run_clean(argv: list[str], cwd: Path) -> str:
    """``toolate *argv``, which must exit 0 with nothing on stderr: its stdout."""
    proc = console(argv, cwd)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_verify_passes(tmp_path):
    assert json.loads(run_clean(["verify"], tmp_path))["ok"] is True


@pytest.mark.parametrize(
    "angles, trials, wanted",
    [
        ("0,0.000001,0.000002", 1000, "\nP(oA=1e-06),"),
        ("0,0.0001,0.0002", 1000, "\nP(vA=up,vB=up),0.0,0.0,"),
        ("100.0001,100.0002,200", 0, "oA=100.0001"),
    ],
    ids=["1e-6-apart", "1e-4-apart", "past-six-digits"],
)
def test_close_orientations_keep_distinct_labels(tmp_path, angles, trials, wanted):
    table = run_clean(["toolate", "--angles", angles, "--trials", str(trials)], tmp_path)
    labels = [line.rsplit(",", 4)[0] for line in table.splitlines()[2:]]
    assert len(labels) == len(set(labels))
    assert wanted in table


def test_erase_at_near_coincident_orientations_is_one_error_line(tmp_path):
    # no weight on the path-symmetric component, so the erasure never fires;
    # ROADMAP item 7 reports such a trine as degenerate and exits 0 instead
    proc = console(["erase", "--angles", "0,0.0001,0.0002"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_an_empty_output_path_is_a_config_error(tmp_path):
    assert_config_error(console(["epr", "--out", ""], tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["toolate", "--angles", "0,1e-10,2e-10", "--trials", "10", "--out", "coincide.csv"],
        ["epr", "--angles", "0,1e-10,45,135", "--trials", "0"],
    ],
    ids=["toolate", "epr"],
)
def test_orientations_whose_labels_coincide_are_a_config_error(tmp_path, argv):
    proc = console(argv, tmp_path)
    assert_config_error(proc)
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []  # neither the table nor its records file


def run_records(trials: int, cwd: Path) -> bytes:
    """``toolate toolate --trials trials --seed 1 --out run.csv``, which
    must exit 0 with nothing on stderr: its records file, after checking
    the table is not empty."""
    run_clean(["toolate", "--trials", str(trials), "--seed", "1", "--out", "run.csv"], cwd)
    assert (cwd / "run.csv").stat().st_size > 0
    return (cwd / "run.records.jsonl").read_bytes()


def test_the_table_and_records_files(tmp_path):
    assert run_records(1000, tmp_path).count(b"\n") == 1001  # the metadata line and 1000 records


def test_the_records_file_across_chunks(tmp_path):
    # 131073 trials are eight 16384-trial chunks and one trial more
    records = run_records(131073, tmp_path)
    assert records.count(b"\n") == 131074
    assert records.splitlines()[-1].startswith(b'{"trial":131072,')


def test_the_epr_table_across_chunks(tmp_path):
    run_clean(["epr", "--trials", "131073", "--seed", "1", "--out", "epr.csv"], tmp_path)
    rows = (tmp_path / "epr.csv").read_text().splitlines(keepends=True)[2:]  # after meta and header
    assert len(rows) == 6
    assert all(row.endswith(",131073\n") for row in rows)
