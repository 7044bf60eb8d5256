"""Every exported name resolves and every imported name is used, so a
deletion cannot leave an export or an import behind, and importing the
package generates no dataclass code."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lmhbrtf

MODULES = [lmhbrtf] + [importlib.import_module(f"lmhbrtf.{m.name}")
                       for m in pkgutil.iter_modules(lmhbrtf.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


SOURCES = sorted(Path(lmhbrtf.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name in a string, as in __all__ or a quoted annotation, counts as read
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover():
    source = "import math\nfrom .tensor import a, b as c\n__all__ = ['a']\nprint(math)\n"
    assert _unused_imports(source) == ["c (line 2)"]


def test_import_builds_no_dataclass():
    # generating dataclass methods cost about 10 ms of every `import lmhbrtf`
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import numpy, sys; import lmhbrtf; "
            "print(lmhbrtf.__file__, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    path, loaded = out.stdout.split()
    assert Path(path).parent == src / "lmhbrtf" and loaded == "False"
