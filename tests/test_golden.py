"""Byte-exact stdout and exit codes of the CLI on the bundled documents.

Each case runs one command on one document in-process and compares its
stdout with ``golden/<document>.<command>.txt`` and its exit code with
``golden/exit_codes.json``.  The documents are the three in ``data/`` and
``golden/tube8x3.json``, a subdivided cylinder of circumference 8 over the
levels 0, 1/2, 2, whose boundary matrices have many pivots each.  After a
change that is meant to alter an output, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from secplex.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
BUNDLED = ("sphere", "sphere_subdivided", "cylinder")
DOCUMENTS = {doc: DATA / f"{doc}.json" for doc in BUNDLED}
DOCUMENTS["tube8x3"] = GOLDEN / "tube8x3.json"
COMMANDS = {
    "ss-page1": ["ss", "--page", "1"],
    "ss-page1-json": ["ss", "--page", "1", "--json"],
    "ss-page2-json": ["ss", "--page", "2", "--json"],
    "reeb-q0": ["reeb", "--q", "0"],
    "reeb-q1": ["reeb", "--q", "1"],
    "reeb-graph": ["reeb-graph"],
    "barcode": ["barcode"],
    "barcode-json": ["barcode", "--format", "json"],
    "homology": ["homology"],
    "sections": ["sections", "--heights", "0,1", "--q", "1"],
    "sections-json": ["sections", "--heights", "0,1", "--q", "1", "--json"],
    "diag-check": ["diag-check", "--max-degree", "1"],
    "ss-page1-json-gf32003": ["ss", "--page", "1", "--json", "--field", "32003"],
    "ss-page2-gf32003": ["ss", "--page", "2", "--field", "32003"],
    "homology-gf32003": ["homology", "--field", "32003"],
}
CASES = [f"{doc}.{name}" for doc in BUNDLED for name in COMMANDS]
CASES += ["tube8x3.ss-page1-json", "tube8x3.ss-page1-json-gf32003"]


def run(case: str) -> tuple[int, bytes]:
    doc, name = case.split(".")
    command, *flags = COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(DOCUMENTS[doc]), *flags])
    return code, out.getvalue().encode()


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case):
    code, out = run(case)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[case]
    assert out == (GOLDEN / f"{case}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        codes[case], out = run(case)
        (GOLDEN / f"{case}.txt").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
