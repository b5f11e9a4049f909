"""Every name the package and its modules export resolves; otherwise a name
deleted from a module but left in an export list shows up only at
``from enetpipe import *``. The package's public names are pinned, no
module keeps a dead import or private name, and scipy is loaded only by
the work that needs it.
"""

import ast
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
SRC = ROOT / "src" / "enetpipe"

MODULES = [enetpipe] + [importlib.import_module(f"enetpipe.{m.name}")
                        for m in pkgutil.iter_modules(enetpipe.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


PUBLIC_NAMES = [
    "CnnConfig", "CnnNetwork", "CnnTrainResult", "ComparisonBlock",
    "ConfigError", "ContractError", "DEFAULT_CENTER_COUNT",
    "DEFAULT_CHANNELS", "DEFAULT_INPUT_SIZE", "DEFAULT_RIDGE_C", "DataError",
    "DataFormatError", "DimensionError", "ElmModel", "EnetPipeError",
    "EvaluationReport", "FoldOutcome", "InsufficientDataError",
    "NumericalError", "PATCH_SIZE", "PcaModel", "PenaltyConfig",
    "PipelineConfig", "PortableRng", "REPORT_FORMATS", "SolverResult",
    "StandardizationRecord", "SyntheticSpec", "UndefinedMetricError",
    "Volume3D", "__version__", "accuracy", "apply_standardization",
    "cnn_init", "cnn_loss_grad", "cnn_train_sgd", "compare_selectors",
    "default_patch_centers", "elastic_net_fit_cd",
    "elastic_net_fit_svm_reduction", "elastic_net_objective", "elm_predict",
    "elm_train", "emit_report", "extract_image_features",
    "extract_patch_2_5d", "generate_synthetic", "holdout_split",
    "kfold_split", "kkt_violation", "lasso_fit", "load_cnn",
    "load_feature_csv", "load_report_json", "load_volume_raw3d", "pca_fit",
    "pca_transform", "predicted_labels", "report_from_json",
    "report_to_json", "run_pipeline", "save_cnn", "save_feature_csv",
    "select_support", "soft_threshold", "standardize_columns",
    "stddev_population", "validate_feature_matrix", "validate_labels",
]


def test_package_exports_the_union_of_its_modules_lists():
    # each public name is declared once, in its module's __all__; the
    # package's own source names none of them but __version__
    assert sorted(enetpipe.__all__) == PUBLIC_NAMES
    assert len(set(enetpipe.__all__)) == len(enetpipe.__all__)
    assert all(hasattr(enetpipe, n) for n in enetpipe.__all__)
    tree = ast.parse((SRC / "__init__.py").read_text())
    spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spelled |= {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)}
    spelled |= {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert spelled & set(PUBLIC_NAMES) == {"__version__"}


# A lint pass in place of a linter (none is a dependency): in every module
# but __init__.py, an imported name must be used or listed in __all__, and
# a module-level _private name must be referenced somewhere in src/.
LINTED = {path.name: ast.parse(path.read_text())
          for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", LINTED)
def test_no_unused_import(name):
    tree = LINTED[name]
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    module = importlib.import_module(f"enetpipe.{name.removesuffix('.py')}")
    exported = set(getattr(module, "__all__", ()))
    assert imported - _referenced(tree) - exported == set()


def test_no_unreferenced_private_module_name():
    referenced = set().union(*map(_referenced, LINTED.values()))
    referenced |= {a.name for tree in LINTED.values() for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names}
    defined = set()
    for tree in LINTED.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    private = {n for n in defined
               if n.startswith("_") and not n.startswith("__")}
    assert private - referenced == set()


def test_coordinate_descent_sweep_has_no_matmul_operator():
    # `a @ b` on two 1-D arrays costs matmul's gufunc dispatch on every
    # coordinate visit; the column's bound .dot makes the same ddot call
    sweep, = (node for node in ast.walk(LINTED["solvers.py"])
              if isinstance(node, ast.FunctionDef)
              and node.name == "_coordinate_descent")
    loop, = (node for node in ast.walk(sweep) if isinstance(node, ast.While))
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(loop))


def _call_sites(name: str) -> list:
    """The module of each call in src/ of a function named `name`,
    whether reached as an attribute (``os.fork()``) or by name."""
    return sorted(module for module, tree in LINTED.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None)))


def test_one_fork_and_no_savetxt():
    # the fork policy (when, how many, what a failed child means) lives in
    # one module, which is the one way the package runs in parallel, and
    # every number the package writes goes through textio.write_rows
    assert _call_sites("fork") == ["fanout.py"]
    assert _call_sites("Thread") == []
    assert _call_sites("savetxt") == []


def _sven_calls(function: str) -> list:
    """Names called by name in sven.py's function of that name."""
    node, = (node for node in ast.walk(LINTED["sven.py"])
             if isinstance(node, ast.FunctionDef) and node.name == function)
    return [call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]


def test_svm_route_builds_its_result_and_support_solve_in_one_place():
    # every exit of the SVM route, a certified active-set step's, a
    # certified budget solve's and the cached minimum's, goes through one
    # support-solve helper and one result builder; every budget solve goes
    # through one margin solver, the primal, with no NNLS dual beside it
    called = _sven_calls("elastic_net_fit_svm_reduction")
    assert called.count("SolverResult") == 1
    assert called.count("_support_solution") == 1
    assert [name for name in _sven_calls("_budget_solution")
            if name.endswith("_margin_solve")] == ["_primal_margin_solve"]
    imported = {alias.name for node in ast.walk(LINTED["sven.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "nnls" not in imported


# scipy is loaded by the functions that call it, not at import: the ELM's
# Cholesky solve loads scipy.linalg and the SVM route's budget search
# scipy.optimize, so a command that reaches neither starts without them.
# Each check runs in a fresh interpreter, whose sys.modules holds only what
# its work loaded.
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


def test_svm_compare_on_pca_scores_loads_scipy_linalg_only(tmp_path):
    # every fold's fit on PCA scores is certified at its gradient-at-zero
    # pattern, so the budget search, and scipy.optimize with it, never runs
    assert main([*GENERATE, "--out-dir", str(tmp_path)]) == 0
    compare = ["compare", "--features", "features.csv", "--selector",
               "elastic_net_svm", "--lambda1", "0.05", "--seed", "1"]
    loaded = _scipy_modules_after(
        f"from enetpipe.cli import main\nassert main({compare!r}) == 0",
        tmp_path)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded
