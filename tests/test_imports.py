"""Every module-level import in ``src/foresight`` is read by its module.

No linter ships with the project, so this is its unused-import check: each
module but ``__init__.py`` is parsed with ``ast``, and every name that a
top-level ``import`` binds must be loaded somewhere in that module or be
listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "foresight"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom typing import Iterable, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Iterable", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
