"""The package's public surface: every ``__all__`` name exists and every re-export is public.

A function deleted from a module must leave no stale ``__all__`` entry
behind, and ``hetsgd/__init__.py`` re-exports only names its source module
lists in ``__all__``, so ``from hetsgd.<module> import *`` gives them too.
``__main__`` is not imported: importing it runs the command line.  Every
module, ``__main__`` too, imports only numpy and the standard library.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import hetsgd

MODULES = sorted(m.name for m in pkgutil.iter_modules(hetsgd.__path__) if m.name != "__main__")


def _reexports():
    tree = ast.parse(Path(hetsgd.__file__).read_text())
    return sorted((node.module, alias.name) for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def test_the_scans_find_the_package():
    # a broken scan would leave the parametrized tests below with nothing to check
    assert {"config", "harness", "models"} <= set(MODULES)
    assert ("config", "validate") in _reexports()


@pytest.mark.parametrize("module", MODULES)
def test_each_all_name_resolves(module):
    mod = importlib.import_module(f"hetsgd.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"hetsgd.{module}.__all__ lists names it does not define: {missing}"


@pytest.mark.parametrize("module, name", _reexports())
def test_each_reexport_is_in_its_modules_all(module, name):
    mod = importlib.import_module(f"hetsgd.{module}")
    assert name in getattr(mod, "__all__", ()), \
        f"hetsgd re-exports {module}.{name}, which hetsgd.{module}.__all__ leaves out"
    assert getattr(hetsgd, name) is getattr(mod, name)


def test_the_package_imports_only_numpy_and_the_standard_library():
    # every import statement, at module level or inside a function
    sources = sorted(Path(hetsgd.__file__).parent.glob("*.py"))
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    assert {"numpy", "os"} <= set(found) and len(sources) > len(MODULES)
    foreign = {top: where for top, where in found.items()
               if top != "numpy" and top not in sys.stdlib_module_names}
    assert not foreign, f"hetsgd imports modules outside numpy and the standard library: {foreign}"
