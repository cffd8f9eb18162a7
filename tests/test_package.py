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


MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in Path(excol.__file__).parent.glob("*.py") if path.name != "__init__.py"}


def loaded_names() -> set:
    """Every name read as a variable or an attribute in the package modules."""
    loaded = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_is_used_in_src():
    # an export that only tests read is test-only API
    loaded = loaded_names()
    assert [name for name in excol.__all__ if name not in loaded] == []


def test_every_top_level_definition_is_used_in_src():
    # a function, class or constant that no module reads is dead code
    loaded = loaded_names()
    unused = []
    for module, tree in sorted(MODULES.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unused.extend(f"{module}:{name}" for name in names if name not in loaded)
    assert unused == []
