"""The benchmark harness still runs against the package.

``bench/tracing.py`` replaces each entry of its ``PATCHES`` table at the
name its caller resolves, reading the original from ``owner.__dict__``;
a deleted or renamed function there breaks ``bench/run.py --trace 1``.
One-second traced rounds of ``narrow_compare`` and ``volume_features``
check the rest end to end.
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


def _traced_round(tmp_path, workload):
    """The result line of a one-second traced run of ``workload`` at seed 1,
    and its spans."""
    # run a copy, so the harness's .bench_work/ and bytecode land in tmp_path
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    trace = tmp_path / ".bench_work" / f"trace-{workload}-seed1.json"
    return result, json.loads(trace.read_text())["spans"]


def test_one_second_traced_round_keeps_its_counts(tmp_path):
    result, _ = _traced_round(tmp_path, "narrow_compare")
    metrics = result["metrics"]
    # the lasso and SVM-route arms pick the same support in every fold,
    # so each fold trains one classifier for both
    assert metrics["elm.train.calls"]["value"] == 10
    assert metrics["elm.predict.calls"]["value"] == 400


def test_one_second_traced_volume_round_keeps_one_span_stack(tmp_path):
    result, spans = _traced_round(tmp_path, "volume_features")
    metrics = result["metrics"]
    # 20 volumes of 27 patches, and 2 training volumes in 4 batches of 16
    assert metrics["cnn.extract.calls"]["value"] == 20
    assert metrics["patches.extract.calls"]["value"] == 594
    assert metrics["cnn.loss_grad.calls"]["value"] == 4
    # the recorder keeps one stack: a span recorded on an extraction
    # helper thread would fall outside its parent
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            inside = (parent["start"] <= span["start"] <= span["end"]
                      <= parent["end"])
            assert inside, (span["name"], parent["name"])
