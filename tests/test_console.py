"""The console entry point run in a child process, as the installed
``toolate`` command runs it: the process exit code, its stderr lines and
the files a refused run leaves behind."""

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
