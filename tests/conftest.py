"""Shared test set-up."""

import pytest
from hypothesis import settings

import hetsgd.harness

# a drawn config's run time spans orders of magnitude, so a per-example deadline would flake
settings.register_profile("hetsgd", deadline=None)
settings.load_profile("hetsgd")


@pytest.fixture(autouse=True)
def _no_cached_dataset():
    """Each test starts with no dataset or layout cached, so tests pass in any order."""
    hetsgd.harness._DATASET_CACHE.clear()
    hetsgd.harness._LAYOUT_CACHE.clear()


@pytest.fixture
def settled(monkeypatch):
    """Take a data file written just before as settled, so a run may cache its dataset."""
    monkeypatch.setattr(hetsgd.harness, "_SETTLE_NS", 0)


@pytest.fixture(scope="session")
def data_files(tmp_path_factory):
    """Four small datasets as CSV, then as binary files: the paths file-backed configs draw.

    40 rows of 3 features in 3 classes, 150 of 2 in 2, 10 of 1 in 2 and 3
    of 2 in 2: the last two are too few for many worker profiles.
    """
    from hetsgd.core import RngStream
    from hetsgd.data import SyntheticSpec, make_synthetic, save_csv
    from test_data import save_binary
    folder, paths = tmp_path_factory.mktemp("data"), []
    for suffix, save in [("csv", save_csv), ("bin", save_binary)]:
        for i, (n, dim, classes) in enumerate([(40, 3, 3), (150, 2, 2), (10, 1, 2), (3, 2, 2)]):
            spec = SyntheticSpec(n=n, input_dim=dim, num_classes=classes, separation=5.0,
                                 label_noise=0.1)
            paths.append(str(folder / f"blobs{i}.{suffix}"))
            save(make_synthetic(spec, RngStream(9, i)), paths[-1])
    return paths
