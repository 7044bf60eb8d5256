"""Every exported name resolves, so a deletion cannot leave an export behind,
and importing the package generates no dataclass code."""

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


def test_import_builds_no_dataclass():
    # generating dataclass methods cost about 10 ms of every `import lmhbrtf`
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import numpy, sys; import lmhbrtf; "
            "print(lmhbrtf.__file__, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    path, loaded = out.stdout.split()
    assert Path(path).parent == src / "lmhbrtf" and loaded == "False"
