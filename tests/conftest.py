"""Shared fixtures: an isolated compile store for the tests that touch it."""

import pytest

from repro.serve.store import set_default_cache


@pytest.fixture
def isolated_cache_dir(tmp_path, monkeypatch):
    """Points $REPRO_CACHE_DIR (and the process default store) at a
    fresh directory, restoring the previous default afterwards."""
    root = tmp_path / "artifact-store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
    previous = set_default_cache(None)
    try:
        yield str(root)
    finally:
        set_default_cache(previous)
