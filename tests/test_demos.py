"""Each demo runs and prints exactly its recorded output.

`goldens/demos.json` maps each demo's file name to its stdout, compared
byte for byte.  Re-record it with

    python tests/test_demos.py

only when an output change is intended.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = Path(__file__).parent / "goldens" / "demos.json"


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)


def record() -> None:
    stdout = {demo.name: run_demo(demo).stdout.decode() for demo in DEMOS}
    GOLDENS.write_text(json.dumps(stdout, indent=1) + "\n")


GOLDEN_STDOUT = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def test_all_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(GOLDEN_STDOUT) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == GOLDEN_STDOUT[demo.name]


if __name__ == "__main__":
    record()
