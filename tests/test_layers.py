"""The state core does not import the operator picture, nor the operator
picture the inequalities."""

import ast
from pathlib import Path

import carentropy

STATE_CORE = ("states", "purification", "inequalities", "counterexamples", "cli")


def imported_modules(tree: ast.Module) -> set[str]:
    """Every package module a parsed module imports, as a name under ``carentropy``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.startswith("carentropy"):
                base = module.removeprefix("carentropy").lstrip(".")
                names.add(base)
                names.update(alias.name for alias in node.names if not base)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.removeprefix("carentropy.")
                for alias in node.names if alias.name.startswith("carentropy.")
            )
    return names


def test_state_core_does_not_import_operators():
    package = Path(carentropy.__file__).parent
    for name in STATE_CORE:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        assert "operators" not in imported_modules(tree), name


def test_operators_do_not_import_inequalities():
    # the containment rule once lived in inequalities, and operators imported it from there
    path = Path(carentropy.__file__).parent / "operators.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "inequalities" not in imported_modules(tree)


def test_import_forms_are_seen():
    # the check reads each way a module could reach the operator picture
    for text in (
        "from .operators import theta",
        "from . import operators",
        "from carentropy.operators import theta",
        "from carentropy import operators",
        "import carentropy.operators",
    ):
        assert "operators" in imported_modules(ast.parse(text)), text
    assert "operators" not in imported_modules(ast.parse("from .states import State"))
