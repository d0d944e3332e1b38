"""Smoke tests of the scripts in ``scripts/``: byte-exact stdout.

Each case runs one script in-process with :mod:`runpy` and compares its
stdout with ``golden/scripts.<case>.txt``.  After a change that is meant to
alter an output, regenerate the files with
``PYTHONPATH=src python tests/test_scripts.py`` and review the diff.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "run_examples": ["run_examples.py"],
    "run_examples-field3": ["run_examples.py", "--field", "3"],
    "grid_report": ["grid_report.py"],
}


def run(case: str) -> bytes:
    script, *argv = CASES[case]
    path = str(SCRIPTS / script)
    out = io.StringIO()
    saved = sys.argv
    sys.argv = [path, *argv]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = saved
    return out.getvalue().encode()


@pytest.mark.parametrize("case", CASES)
def test_script_output(case):
    assert run(case) == (GOLDEN / f"scripts.{case}.txt").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"scripts.{case}.txt").write_bytes(run(case))
