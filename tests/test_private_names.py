"""Every module-level private name of the package is used somewhere in the package."""

import ast
from pathlib import Path

import carentropy


def test_every_private_name_is_used():
    # a helper that outlives its last caller would otherwise linger unnoticed
    defined, used = {}, set()
    for path in Path(carentropy.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update(
                (name, path.name) for name in names
                if name.startswith("_") and not name.startswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted((module, name) for name, module in defined.items() if name not in used) == []
