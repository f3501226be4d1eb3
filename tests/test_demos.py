"""Smoke test: every script under demos/ and the README's library quick
start run to completion without noise.

Each runs in a fresh interpreter from an empty working directory
(embedding_tour.py writes its OBJ mesh there) and must exit 0 with
nothing on standard error.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_clean(argv, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        argv, cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_demos_present():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script, tmp_path):
    _run_clean([sys.executable, str(script)], tmp_path)


def test_readme_quick_start_runs_clean(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no python quick-start block"
    _run_clean([sys.executable, "-c", block.group(1)], tmp_path)
