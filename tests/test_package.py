"""Every name the package and its modules export resolves; otherwise a name
deleted from a module but left in an export list shows up only at
``from enetpipe import *``. And scipy is loaded only by the work that
needs it.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import enetpipe
from enetpipe.cli import main

ROOT = Path(__file__).resolve().parent.parent

MODULES = [enetpipe] + [importlib.import_module(f"enetpipe.{m.name}")
                        for m in pkgutil.iter_modules(enetpipe.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# scipy is loaded by the functions that call it, not at import: the ELM's
# Cholesky solve loads scipy.linalg and the SVM route scipy.optimize, so a
# command that reaches neither starts without them. Each check runs in a
# fresh interpreter, whose sys.modules holds only what its work loaded.
GENERATE = ["generate", "--n-samples", "120", "--groups", "2",
            "--group-size", "3", "--n-noise", "6", "--seed", "3"]


def _scipy_modules_after(code: str, cwd) -> set:
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps([m for m in sys.modules\n"
              "                  if m.split('.')[0] == 'scipy']))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import enetpipe, enetpipe.cli",
                                tmp_path) == set()


def test_generate_loads_no_scipy(tmp_path):
    code = f"from enetpipe.cli import main\nassert main({GENERATE!r}) == 0"
    assert _scipy_modules_after(code, tmp_path) == set()
    assert (tmp_path / "features.csv").exists()


def test_cd_evaluate_loads_scipy_linalg_only(tmp_path):
    assert main([*GENERATE, "--out-dir", str(tmp_path)]) == 0
    evaluate = ["evaluate", "--features", "features.csv", "--selector",
                "elastic_net_cd", "--k-folds", "3", "--seed", "1"]
    loaded = _scipy_modules_after(
        f"from enetpipe.cli import main\nassert main({evaluate!r}) == 0",
        tmp_path)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded
