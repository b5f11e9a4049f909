"""Every demo script, and the README's library sketch, runs to completion,
with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd, tmpdir):
    # a script's temporary files go to its own TMPDIR, which must end empty
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmpdir.iterdir()) == []


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path, tmp_path / "tmp")


def test_readme_python_block_runs(tmp_path):
    # a name deleted from the package but still used in the README fails here
    blocks = re.findall(r"^```python\n(.*?)^```\n",
                        (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    _run(["-c", blocks[0]], tmp_path, tmp_path / "tmp")
