"""Every demo script runs to the end without a traceback or a warning."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import predprey

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    # Run in tmp_path, with temporary files there too, and with the
    # directory holding the imported package first on PYTHONPATH, so the
    # child runs the same code the tests import.
    package_root = str(Path(predprey.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
