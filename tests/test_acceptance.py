"""The acceptance gate: every criterion must pass within its time budget.

Each criterion prints its own pass/fail line so a failing run shows the full
scoreboard, and the same checks back the CLI ``selftest`` subcommand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3lat import acceptance
from k3lat.acceptance import TIME_BUDGETS, run_criterion
from k3lat.cli import run


@pytest.mark.parametrize("number", sorted(TIME_BUDGETS))
def test_criterion(number):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.number} ({result.title}) "
          f"[{result.seconds:.2f}s]: {result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"
    assert result.seconds < TIME_BUDGETS[number], (
        f"criterion {result.number} took {result.seconds:.2f}s "
        f"(budget {TIME_BUDGETS[number]}s)"
    )


def test_selftest_reports_a_crashing_criterion_as_failed(capsys, monkeypatch):
    """A criterion that raises something other than AssertionError is one FAIL line;
    the other criteria still run and print, and the exit code is 1."""
    def missing_file():
        raise FileNotFoundError("no such file: mp108.json")

    criteria = list(acceptance._CRITERIA)
    number, title, _ = criteria[9]
    criteria[9] = (number, title, missing_file)
    monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
    code = run(["selftest"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and "Traceback" not in out + err
    assert sum(line.startswith("PASS") for line in lines) == 9
    fail = [line for line in lines if line.startswith("FAIL")]
    assert len(fail) == 1 and fail[0].startswith(f"FAIL  criterion {number} ({title})")
    assert fail[0].endswith(": FileNotFoundError: no such file: mp108.json")
    assert lines[-1] == "9/10 criteria passed"


def test_selftest_reports_a_failed_assertion_with_its_message(capsys, monkeypatch):
    """A failed assertion is a FAIL line carrying its message, or "assertion failed"
    when it has none, and the exit code is 1."""
    def passes():
        return "fine"

    def fails_with_message():  # raised by hand: pytest rewrites an assert in this file
        raise AssertionError("arithmetic is broken")

    def fails_bare():
        raise AssertionError

    monkeypatch.setattr(acceptance, "_CRITERIA", [
        (1, "passes", passes), (2, "with message", fails_with_message), (3, "bare", fails_bare),
    ])
    code = run(["selftest"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and err == "" and "Traceback" not in out
    assert lines[0].startswith("PASS  criterion 1 (passes)") and lines[0].endswith(": fine")
    assert lines[1].startswith("FAIL  criterion 2 (with message)")
    assert lines[1].endswith(": arithmetic is broken")
    assert lines[2].startswith("FAIL  criterion 3 (bare)")
    assert lines[2].endswith(": assertion failed")
    assert lines[3] == "1/3 criteria passed"


def test_selftest_fails_every_criterion_when_assertions_are_off():
    """``python -O`` strips the asserts every criterion checks with, so under it
    each criterion is a FAIL line and selftest exits 1 instead of passing unchecked."""
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-m", "k3lat.cli", "selftest"],
                          capture_output=True, text=True, env=env, timeout=60)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1 and proc.stderr == ""
    assert len(lines) == 11 and lines[-1] == "0/10 criteria passed"
    assert all(line.startswith("FAIL") and line.endswith(": not checked: assertions are off "
                                                         "(python -O)") for line in lines[:-1])
