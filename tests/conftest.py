"""Shared test set-up."""

import pytest

import hetsgd.harness


@pytest.fixture(autouse=True)
def _no_cached_dataset():
    """Each test starts with no dataset or layout cached, so tests pass in any order."""
    hetsgd.harness._DATASET_CACHE.clear()
    hetsgd.harness._LAYOUT_CACHE.clear()


@pytest.fixture
def settled(monkeypatch):
    """Take a data file written just before as settled, so a run may cache its dataset."""
    monkeypatch.setattr(hetsgd.harness, "_SETTLE_NS", 0)
