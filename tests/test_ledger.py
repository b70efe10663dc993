"""ROADMAP item 6's count of settable values, rebuilt from the code by one rule.

A settable value is a parameter with a default, read by inspect.signature,
of a public function, a public class or a public method defined in a
voxscreen module. Each is counted once, in the module that defines it. A
class counts the defaults of its constructor when that is a Python-level
__init__ (a dataclass's, or one it inherits, as the ManifestError family
does), plus those of the public methods in its own body; a class with no
Python-level __init__, such as a bare VoxscreenError subclass, counts 0.
"""

import importlib
import inspect
import itertools
import pathlib
import pkgutil

import voxscreen

ROADMAP = pathlib.Path(__file__).resolve().parents[1] / "ROADMAP.md"


def defaults(fn) -> int:
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def settable_values() -> int:
    total = 0
    for info in pkgutil.walk_packages(voxscreen.__path__, "voxscreen."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isfunction(obj):
                total += defaults(obj)
            elif inspect.isclass(obj):
                total += defaults(obj) if inspect.isfunction(obj.__init__) else 0
                total += sum(defaults(method) for method_name, method in vars(obj).items()
                             if not method_name.startswith("_") and inspect.isfunction(method))
    return total


def recorded_settable_values() -> int:
    """The last column of the last row of item 6's ledger table."""
    lines = [line.strip() for line in ROADMAP.read_text().splitlines()]
    header = next(i for i, line in enumerate(lines) if line.endswith("| settable values |"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[header + 2:]))
    return int(rows[-1].strip("|").split("|")[-1])


def test_settable_values_match_the_roadmap_ledger():
    assert settable_values() == recorded_settable_values()
