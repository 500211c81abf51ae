"""The argv contract of `python -m chquad.cli`, one process per argv.

A usage error exits 2 with a usage line on stderr and nothing on stdout; a value the
parser accepts but a handler rejects exits 2 with a JSON error record on stdout instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chquad

COMMANDS = ("invariants", "normalize", "reconstruct", "check-moduli", "congruent",
            "counterexample", "sample", "slice")
SLICE = ["slice", "--a", "0", "--x1-steps", "2", "--x2-steps", "2"]


def run(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(chquad.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "chquad.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["bogus"],  # an unknown command
    ["invariants", "--bogus", "x"],  # an unknown flag
    ["invariants", "extra"],  # a bare token after the command
    ["sample", "--n"],  # a flag without a value
    ["counterexample"],  # a missing --t
    ["sample", "--count", "2"],  # a missing --n
    ["slice", "--x1-steps", "2"],  # a missing --a
    ["sample", "--n", "2.5"],  # a literal int() rejects
    ["counterexample", "--t", "two"],  # a literal float() rejects
    ["--tol", "x", "counterexample", "--t", "2"],
    ["sample", "--n", "2", "--kind", "bogus"],  # a kind outside KINDS
    ["invariants", "--tol", "1e-2"],  # --tol belongs before the command
    ["--input", "-", "invariants"],  # a command's flag before the command
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_exits_two_with_usage_on_stderr(argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert "usage:" in err and "Traceback" not in err


def test_flag_equals_value_reads_as_two_tokens():
    assert run("counterexample", "--t=2") == run("counterexample", "--t", "2")
    assert run("--tol=1e-6", *SLICE) == run("--tol", "1e-6", *SLICE)
    code, out, _ = run("counterexample", "--t=2")
    assert code == 0 and json.loads(out)["t"] == 2.0


def test_negative_values_parse():
    code, out, err = run(*SLICE, "--x1-min", "-1", "--x1-max=-0.5", "--x2-min", "-2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["x1,x2,residual", "-1,-2,8", "-1,3,13", "-0.5,-2,8.25",
                                "-0.5,3,8.25"]
    # a negative count reaches the handler's own check: a JSON record, not a usage error
    code, out, err = run("sample", "--n", "2", "--count", "-1")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": "malformed-input",
                               "detail": "--count must be >= 0, got -1"}


def test_tol_before_the_command_parses():
    code, out, err = run("--tol", "1e-6", "counterexample", "--t", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["t"] == 2.0
    code, out, _ = run("--tol", "-1", "counterexample", "--t", "2")  # parsed, then rejected
    assert code == 2 and json.loads(out)["error"] == "malformed-input"


def test_a_repeated_flag_keeps_its_last_value():
    assert run("sample", "--n", "2", "--seed", "3", "--seed", "4") == \
        run("sample", "--n", "2", "--seed", "4")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_and_names_every_command(flag):
    code, out, err = run(flag)
    assert (code, err) == (0, "")
    assert all(command in out for command in COMMANDS)
    for command in COMMANDS:
        code, out, err = run(command, flag)
        assert (code, err) == (0, "")
        assert f"chquad {command}" in out
