"""``tools/output_digests.py`` on one workload at seed 0, against the generator and ``run_analysis``."""
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gridqmc import run_analysis
from gridqmc.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield importlib.import_module("gen")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_one_line_per_study_with_the_report_sha256(gen):
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "quantum-dense", "--seeds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    studies = gen.generate("quantum-dense", 0, ROOT)
    assert len(lines) == len(studies)
    index = 5
    study = studies[index]
    report = run_analysis(parse_config(json.loads(study.text), source=study.file)).to_json()
    sha = hashlib.sha256(report.encode()).hexdigest()
    assert lines[index] == f"quantum-dense 0 {index} {study.metric} {sha}"
