"""The traced benchmark run wraps library functions by name: every function
``perfbench/spans.py`` lists in ``TRACED`` or imports from the library must
still exist, or ``Recorder.install`` fails with an AttributeError and a
``--trace 1`` run dies."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _named_functions():
    tree = ast.parse(SPANS.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("onsager_ms."):
            names.update((node.module.removeprefix("onsager_ms."), a.name) for a in node.names)
    return names


def test_benchmark_traced_functions_exist():
    names = _named_functions()
    assert ("equilibrium", "sphere_order_for") in names
    assert len(names) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(names)
        if not callable(getattr(importlib.import_module(f"onsager_ms.{module}"), attr, None))
    ]
    assert not missing
