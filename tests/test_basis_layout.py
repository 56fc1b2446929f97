"""The basis layout of the second variation (each family's functional and
slot kind) is stated once, in ``stability``'s family table.  No other module
of the library imports a one-sphere family name or branches on a family
name: it reads gamma, the counts and the slot values from ``stability``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onsager_ms"
FAMILY_CONSTANTS = {"OMEGA_A", "OMEGA_B", "XI_A", "XI_B", "THETA"}
FAMILY_NAMES = {"Omega_A", "Omega_B", "Xi_A", "Xi_B", "Theta", "Omega", "Xi"}
OTHER_MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "stability.py")


def _names_a_family(node):
    return (isinstance(node, ast.Name) and node.id in FAMILY_CONSTANTS) or (
        isinstance(node, ast.Constant) and node.value in FAMILY_NAMES
    )


def _layout_leaks(tree):
    """Lines that import a family constant other than THETA, or compare
    with a family name or test a prefix of one."""
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            leaks += [node.lineno for a in node.names if a.name in FAMILY_CONSTANTS - {"THETA"}]
        elif isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            if any(_names_a_family(sub) for part in operands for sub in ast.walk(part)):
                leaks.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("startswith", "endswith") and any(map(_names_a_family, node.args)):
                leaks.append(node.lineno)
    return leaks


def test_the_scan_sees_every_kind_of_leak():
    source = (
        "from .stability import OMEGA_A, THETA\n"
        "a = idx.family.startswith('Omega')\n"
        "b = family == XI_B\n"
        "c = family in ('Theta', 'b')\n"
        "d = family == THETA\n"
        "e = GAMMA_BY_FAMILY[family] == 1\n"
    )
    assert _layout_leaks(ast.parse(source)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", OTHER_MODULES)
def test_only_stability_states_the_basis_layout(name):
    assert "spectral.py" in OTHER_MODULES and "verify.py" in OTHER_MODULES
    assert _layout_leaks(ast.parse((PACKAGE / name).read_text())) == []
