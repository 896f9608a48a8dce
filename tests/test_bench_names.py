"""The benchmark's driver code reaches into the library by dotted name.

``bench/workloads.py`` and ``bench/child.py`` call ``hetsgd.<module>.<name>``
directly, so a name they use must not disappear from ``src/`` unnoticed.
``bench/spans.py`` is not scanned: a hook whose name is gone is skipped by
design and reported as an unhooked layer.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("bench/workloads.py", "bench/child.py")


def _referenced():
    names = set()
    for rel in SCANNED:
        text = (ROOT / rel).read_text()
        names.update(re.findall(r"\bhetsgd\.([A-Za-z_]\w*)\.([A-Za-z_]\w*)", text))
    return sorted(names)


def test_the_scan_finds_the_benchmark_calls():
    # a broken pattern would leave the parametrized test below with nothing to check
    assert ("harness", "run") in _referenced()
    assert ("data", "train_val_split") in _referenced()


@pytest.mark.parametrize("module, name", _referenced())
def test_each_benchmark_name_resolves_in_src(module, name):
    mod = importlib.import_module(f"hetsgd.{module}")
    assert Path(mod.__file__).resolve().parent == ROOT / "src" / "hetsgd"
    assert hasattr(mod, name), f"bench uses hetsgd.{module}.{name}, which src/ no longer has"
