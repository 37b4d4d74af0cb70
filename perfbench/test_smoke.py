"""Harness self-test, about a minute: ``python -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
