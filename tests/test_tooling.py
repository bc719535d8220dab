import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmc

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve():
    assert [name for name in fmc.__all__ if not hasattr(fmc, name)] == []


@pytest.mark.parametrize(
    "script, args",
    [("multiplicity_grid.py", ["4", "2"]), ("poincare_examples.py", ["3"])],
)
def test_shipped_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
