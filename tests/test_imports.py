"""``src/foresight`` holds no unused import and no code that only tests call.

No linter ships with the project, so these are its checks. Each module but
``__init__.py`` is parsed with ``ast``:

- every name that a top-level ``import`` binds must be loaded somewhere in
  that module or be listed in its ``__all__``;
- every top-level function and class must be referred to by a name, an
  attribute or an import in ``src/foresight`` or ``bench``. The package's
  re-exports in ``__init__.py`` and the ``__all__`` lists are not callers.

Every module, ``__init__.py`` too, must bind at top level each name its
``__all__`` lists, or ``from foresight.x import *`` fails.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "foresight"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "bench").glob("*.py"))


def exported(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - exported(tree))


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom typing import Iterable, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Iterable", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referred_names(source: str) -> set[str]:
    """Every name that a ``Name``, an ``Attribute`` or an import alias in ``source`` refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def uncalled_definitions(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of each top-level function or class in ``modules``
    (name -> source) that no source in ``callers`` refers to."""
    referred = set().union(*map(referred_names, callers))
    return sorted(
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in referred
    )


def test_the_check_finds_an_uncalled_definition():
    source = (
        "import os\n"
        "class Used: pass\n"
        "class Unused: pass\n"
        "def helper(): return Used()\n"
        "def uncalled(): return os.sep\n"
        "__all__ = ['uncalled']\n"
    )
    caller = "from m import helper\n"
    assert uncalled_definitions({"m": source}, [source, caller]) == ["m.Unused", "m.uncalled"]


def test_src_holds_only_definitions_the_program_calls():
    sources = [path.read_text(encoding="utf-8") for path in CALLERS]
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert uncalled_definitions(modules, sources) == []


def unbound_exports(source: str) -> list[str]:
    """Each name in ``__all__`` that no top-level statement of ``source`` binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return sorted(exported(tree) - bound)


def test_the_check_finds_an_unbound_export():
    source = (
        "import os.path\n"
        "from typing import Optional as Opt\n"
        "X = 1\n"
        "Y: int = 2\n"
        "A, B = 1, 2\n"
        "def f(): pass\n"
        "class K: pass\n"
        "__all__ = ['os', 'Opt', 'X', 'Y', 'A', 'B', 'f', 'K', 'Optional', 'Gone']\n"
    )
    assert unbound_exports(source) == ["Gone", "Optional"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_binds_every_export(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []
