"""README.md names the library's code by dotted name; each name must resolve in ``src/``.

Every ``module.name`` or ``hetsgd.module.name`` inside an inline code span
of README.md is checked where ``module`` is one of ``src/hetsgd``'s modules,
apart from config keys such as ``data.n``, which ``config._KEYS`` declares.
"""

import importlib
import re
from pathlib import Path

import pytest

from hetsgd.config import _KEYS

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "hetsgd").glob("*.py")}


def _referenced():
    names = set()
    # fenced blocks hold shell lines and the file tree; an inline span may wrap a line
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", text):
        for module, name in re.findall(r"(?<![\w.])(?:hetsgd\.)?([a-z_]\w*)\.([A-Za-z_]\w*)",
                                       span):
            if module in MODULES and f"{module}.{name}" not in _KEYS:
                names.add((module, name))
    return sorted(names)


def test_the_scan_finds_the_readme_names():
    # a broken pattern would leave the parametrized test below with nothing to check
    names = _referenced()
    assert ("workers", "train_round") in names
    assert ("config", "plan") in names  # inside a longer span, `hetsgd.config.plan(cfg)`
    assert ("data", "n") not in names  # a config key


@pytest.mark.parametrize("module, name", _referenced())
def test_each_readme_name_resolves_in_src(module, name):
    mod = importlib.import_module(f"hetsgd.{module}")
    assert Path(mod.__file__).resolve().parent == ROOT / "src" / "hetsgd"
    assert hasattr(mod, name), f"README.md names {module}.{name}, which src/ no longer has"
