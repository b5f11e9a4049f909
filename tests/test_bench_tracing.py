"""The traced benchmark's patch table still matches the package.

``bench/tracing.py`` replaces each entry of its ``PATCHES`` table at the
name its caller resolves, reading the original from ``owner.__dict__``;
a deleted or renamed function there breaks ``bench/run.py --trace 1``.
"""

import importlib.util
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
