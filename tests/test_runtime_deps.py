"""numpy is the only third-party package that voxscreen loads at run time."""

import os
import pathlib
import subprocess
import sys

import numpy

import voxscreen

PROBE = """
import importlib, pkgutil, sys
import voxscreen
names = [m.name for m in pkgutil.walk_packages(voxscreen.__path__, "voxscreen.")]
for name in names:
    importlib.import_module(name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(len(names))
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"__main__", "numpy", "voxscreen"})))
"""


def test_importing_every_module_loads_only_stdlib_and_numpy():
    package_dir = pathlib.Path(voxscreen.__file__).parent
    numpy_home = pathlib.Path(numpy.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package_dir.parent), str(numpy_home)]))
    # -S: no site hooks, whose .pth files may load third-party packages at startup
    run = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    n_modules, foreign = run.stdout.split("\n")[:2]
    modules = [p for p in package_dir.rglob("*.py") if p != package_dir / "__init__.py"]
    assert int(n_modules) == len(modules)  # every module and subpackage was imported
    assert foreign == ""
