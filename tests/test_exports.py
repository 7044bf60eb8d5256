"""Every exported name resolves, so a deletion cannot leave an export behind."""

import importlib
import pkgutil

import pytest

import lmhbrtf

MODULES = [lmhbrtf] + [importlib.import_module(f"lmhbrtf.{m.name}")
                       for m in pkgutil.iter_modules(lmhbrtf.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
