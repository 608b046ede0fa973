"""The production commands start without numpy.

``compute``, ``sweep`` and ``figures`` run on ``qcorr.engine``, which needs
only the standard library; ``verify`` and the dense reference import numpy,
and without it ``verify`` exits 1 with a one-line error.  pytest has already
imported numpy, so each command runs in a fresh interpreter that reports
whether numpy got loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcorr.audit
import qcorr.engine
import qcorr.model
import qcorr.numkernel
from qcorr.cli import cli_main

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
from qcorr.cli import cli_main
code = cli_main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


def _run_script(script: str, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run_fresh(argv: list[str], cwd: Path) -> tuple[int, bool]:
    proc = _run_script(PROBE, argv, cwd)
    proc.check_returncode()
    code, loaded = proc.stderr.strip().splitlines()[-1].split()
    return int(code), loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["compute", "--t", "1", "--dz", "1.8", "--gz", "0.3", "--b", "1.5"],
        ["compute", "--t", "1", "--dz", "1.8", "--gamma", "0.3"],
        ["sweep", "--var", "dz", "--from", "-1", "--to", "1", "--steps", "5"],
        ["figures", "--which", "fig4_top", "--outdir", "figs"],
    ],
    ids=["import", "compute", "compute-gamma", "sweep", "figures"],
)
def test_production_commands_leave_numpy_unimported(argv, tmp_path):
    assert _run_fresh(argv, tmp_path) == (0, False)


def test_verify_imports_numpy_and_exits_zero(tmp_path):
    assert _run_fresh(["verify", "--count", "100"], tmp_path) == (0, True)


def test_verify_without_numpy_prints_one_error_line(tmp_path):
    script = "import sys\nsys.modules['numpy'] = None\nfrom qcorr.cli import main\nmain()\n"
    proc = _run_script(script, ["verify", "--count", "100"], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: qcorr verify needs numpy, which cannot be imported (")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith(")\n")


def test_verify_numerical_failure_still_exits_2(monkeypatch, capsys):
    def boom(grid):
        raise qcorr.numkernel.NotPSDError("synthetic")

    monkeypatch.setattr(qcorr.audit, "audit_formulas", boom)
    assert cli_main(["verify", "--count", "100"]) == 2
    assert capsys.readouterr().err == "numerical error: synthetic\n"


def test_moved_names_are_the_engine_objects():
    assert qcorr.numkernel.NotPSDError is qcorr.engine.NotPSDError
    assert qcorr.numkernel.NotHermitianError is qcorr.engine.NotHermitianError
    assert qcorr.model.ModelParams is qcorr.engine.ModelParams
