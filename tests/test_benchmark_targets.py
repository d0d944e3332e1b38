"""Every name the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``TARGETS`` table; a name removed or renamed in the package would break a
traced benchmark run.  The table is read from the source without running
it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for layer, owner, attr, _ in targets:
        module = importlib.import_module(f"secplex.{layer}")
        if owner is None:
            assert callable(getattr(module, attr, None)), f"secplex.{layer}.{attr}"
        else:
            cls = getattr(module, owner, None)
            assert cls is not None and callable(vars(cls).get(attr)), (
                f"secplex.{layer}.{owner}.{attr}"
            )
