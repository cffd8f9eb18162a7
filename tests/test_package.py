import ast
from pathlib import Path

import excol

REMOVED = ("SerreMatrix", "PhasePoint", "on_gamma")


def test_every_exported_name_resolves():
    missing = [name for name in excol.__all__ if not hasattr(excol, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(excol.__all__) == len(set(excol.__all__))


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in excol.__all__
        assert not hasattr(excol, name)


def test_every_export_is_used_in_src():
    # an export that only tests read is test-only API
    loaded = set()
    for path in Path(excol.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [name for name in excol.__all__ if name not in loaded] == []
