"""numpy is the only third-party package that voxscreen loads at run time,
every re-exported learner name resolves, and so does every function the
benchmark's tracer wraps."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import pkgutil
import sys

import numpy

import voxscreen

PROBE = """
import importlib, pkgutil, sys
import voxscreen
names = [m.name for m in pkgutil.walk_packages(voxscreen.__path__, "voxscreen.")]
for name in names:
    importlib.import_module(name)
from voxscreen.learners import *  # raises if a name in __all__ does not resolve
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


def test_every_traced_layer_resolves():
    """perfbench/tracing.py wraps functions by (module, attribute) name; a
    rename in voxscreen would otherwise pass here and only break a traced run."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for info in pkgutil.walk_packages(voxscreen.__path__, "voxscreen."):
        importlib.import_module(info.name)
    assert callable(sys.modules["voxscreen.pipeline"].resolve_recipe)  # wrapped by name too
    for module, attr, span, _ in tracing.LAYERS:
        owner = sys.modules[module]
        if "." in attr:  # a method, patched on its class
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(method)), span
        else:
            assert callable(getattr(owner, attr, None)), span


def test_cli_import_loads_no_process_pool(tmp_path):
    """The fold and clip pools import multiprocessing and concurrent.futures
    only when they run: importing them costs 23 to 35 ms, on a startup of about
    0.2 s. Importing the CLI loads neither, and nor does an extract on one CPU,
    where the clips run in this process."""
    manifest, out = str(tmp_path / "manifest.csv"), str(tmp_path / "feats")
    probe = f"""
import os, sys, voxscreen.cli as cli
def pool_modules():
    return sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent'))
assert pool_modules() == [], pool_modules()
os.sched_getaffinity = lambda pid: {{0}}
assert cli.main(['synth', '1', '1', '--duration', '0.5', '--out', {str(tmp_path)!r}]) == 0
assert cli.main(['extract', '--manifest', {manifest!r}, '--feature', 'mfcc_vector',
                 '--out', {out!r}]) == 0
assert pool_modules() == [], pool_modules()
"""
    src = pathlib.Path(voxscreen.__file__).parent.parent
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    assert "extracted 2 features" in run.stdout
