"""Every demo script runs to the end without a traceback or a warning,
and prints the text pinned for it."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import predprey

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout with matplotlib unavailable and demo 05's
# temporary directory replaced by TMPDIR_TOKEN
STDOUT_SHA256 = {
    "01_continuous_model":
        "3d51afc9b4af5607438c48a94f1213b7fda869dc80c52531fa82709991a6c4f6",
    "02_euler_step_size":
        "5afc05dce363d249516ce99ccff09e7efc2789ae967bac0e4f36b109c984d22d",
    "03_mickens_positivity":
        "9d409c1075336c558df7a51c7e530245c2829f76d6a76d10cc97fe24e7f1b0ab",
    "04_fractional_orders":
        "84248a7a22877734e2e910dee8052308cf78763b5f4cf66d29121669c0f61467",
    "05_scenarios_and_csv":
        "78d02a3e81b23b2393b1aad81d770c6dde6a2ce11da3a655d16fdb669306e446",
}
TMPDIR_TOKEN = "<tmpdir>"
# a None entry in sys.modules makes `import matplotlib` fail, so every
# host takes the demos' no-figure branch
WITHOUT_MATPLOTLIB = ("import runpy, sys; sys.modules['matplotlib'] = None; "
                      "runpy.run_path({!r}, run_name='__main__')")


def _run(tmp_path, *args):
    # Run in tmp_path, with temporary files there too, and with the
    # directory holding the imported package first on PYTHONPATH, so the
    # child runs the same code the tests import.
    package_root = str(Path(predprey.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=tmp_path, env=env)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    proc = _run(tmp_path, str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_the_pinned_text(tmp_path, demo):
    proc = _run(tmp_path, "-c", WITHOUT_MATPLOTLIB.format(str(demo)))
    assert proc.returncode == 0, proc.stderr
    text = re.sub(r"\S*predprey_demo_[^\s/]+", TMPDIR_TOKEN, proc.stdout)
    assert hashlib.sha256(text.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
