"""Smoke tests: every demo script runs to completion and prints something,
and README's library quick start runs as written."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("hashing_tour", "image_encryption", "quality_report", "simulator_tour")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})  # the block's own assert checks the round trip
    assert out.getvalue().splitlines()[0] == "1011"
