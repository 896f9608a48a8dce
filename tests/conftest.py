"""Shared test set-up."""

import pytest

import hetsgd.harness


@pytest.fixture(autouse=True)
def _no_cached_data_file():
    """Each test starts with no data file cached, so tests pass in any order."""
    hetsgd.harness._FILE_CACHE.clear()
