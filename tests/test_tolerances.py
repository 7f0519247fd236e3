"""Every constant of ``carentropy.tolerances`` guards a check somewhere in the package."""

import ast
from pathlib import Path

import carentropy
from carentropy import tolerances


def test_every_tolerance_is_imported():
    # a threshold whose check was deleted would otherwise linger unnoticed
    imported = set()
    for path in Path(carentropy.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tolerances":
                imported.update(alias.name for alias in node.names)
    names = {name for name in vars(tolerances) if name.isupper()}
    assert sorted(names - imported) == []
