"""The benchmark harness still runs against the package.

``bench/tracing.py`` replaces each entry of its ``PATCHES`` table at the
name its caller resolves, reading the original from ``owner.__dict__``;
a deleted or renamed function there breaks ``bench/run.py --trace 1``.
A one-second traced round checks the rest end to end.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing(monkeypatch):
    # import without writing bytecode next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_to_a_callable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.PATCHES
    for owner, attr, span, _ in tracing.PATCHES:
        assert attr in owner.__dict__, (owner.__name__, attr, span)
        assert callable(owner.__dict__[attr]), (owner.__name__, attr)


def test_one_second_traced_round_keeps_its_counts(tmp_path):
    # run a copy, so the harness's .bench_work/ and bytecode land in tmp_path
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "narrow_compare",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    # the lasso and SVM-route arms pick the same support in every fold,
    # so each fold trains one classifier for both
    assert metrics["elm.train.calls"]["value"] == 10
    assert metrics["elm.predict.calls"]["value"] == 400
