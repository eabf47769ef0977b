import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridqmc

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, so that files a demo writes next to itself land in tmp_path
    script = shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(gridqmc.__file__).parents[1])}
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
