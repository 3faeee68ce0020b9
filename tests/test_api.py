"""Public surface: exported names resolve, and modules keep to it."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import predprey

PACKAGE = Path(predprey.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def _unused_imports(tree):
    """Names an import binds that the module never reads; names listed in
    ``__all__`` count as read, and ``from __future__`` is skipped."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_unused_imports():
    found = []
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{folder.name}/{path.name}:{line}: {name}"
                      for line, name in _unused_imports(tree)]
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
         " 'numpy.fft' in sys.modules, 'argparse' in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[False, False, False]\n"), \
        proc.stderr


def test_compare_loads_no_module():
    # a fresh interpreter again; np.unique, and np.union1d through it,
    # would import numpy.ma on its first call
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([inherited] if inherited else [])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np\n"
         "from predprey import Trajectory, compare\n"
         "a = Trajectory(np.arange(5.0), np.ones((5, 2)), 'csv')\n"
         "b = Trajectory(np.arange(0.5, 9.0, 0.5), np.zeros((17, 2)), 'csv')\n"
         "before = set(sys.modules)\n"
         "compare(a, b), compare(b, a), compare(a, a)\n"
         "print(sorted(set(sys.modules) - before))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
