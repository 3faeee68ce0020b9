"""Public surface: exported names resolve, and modules keep to it."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import predprey

PACKAGE = Path(predprey.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [n for n in predprey.__all__ if not hasattr(predprey, n)] == []


def test_no_module_imports_a_private_sibling_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "predprey":
                continue
            found += [f"{path.name}: {alias.name} from {'.' * node.level}{module}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_import_starts_no_thread_pool_machinery():
    # a fresh interpreter, so modules the tests imported do not count;
    # numpy.fft is reached lazily, by the first Caputo solve
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([inherited] if inherited else [])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, predprey; print(['concurrent.futures' in sys.modules,"
         " 'numpy.fft' in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[False, False]\n"), \
        proc.stderr
