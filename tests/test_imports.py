"""Every name a module of the package imports is used there: read as a name
somewhere in the module, or exported through its ``__all__``. No linter is
a test dependency, and code that a change deletes often leaves its imports."""

from __future__ import annotations

import ast

import pytest

from conftest import SRC


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind and it never reads, in import order;
    ``from __future__`` imports aside."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted((SRC / "aircast").glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport os.path as osp\nfrom sys import argv, path\n__all__ = ['path']\nargv\n"
    assert unused_imports(source) == ["os", "osp"]
