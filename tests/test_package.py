"""Every name the package and its modules export resolves.

Otherwise a name deleted from a module but left in an export list shows up
only at ``from enetpipe import *``.
"""

import importlib
import pkgutil

import pytest

import enetpipe

MODULES = [enetpipe] + [importlib.import_module(f"enetpipe.{m.name}")
                        for m in pkgutil.iter_modules(enetpipe.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
