"""``tools/histogram_ladder.py`` starts without pytest; no ladder runs."""
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "tools" / "histogram_ladder.py"


def test_ladder_help_without_pytest():
    # a None entry in sys.modules makes ``import pytest`` raise ImportError
    code = (
        "import runpy, sys; sys.modules['pytest'] = None; "
        f"sys.argv = [{str(LADDER)!r}, '--help']; runpy.run_path({str(LADDER)!r}, run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: histogram_ladder.py")
