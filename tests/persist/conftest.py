"""Fixtures for the durability suite."""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture
def persist_dir(tmp_path: Path) -> Path:
    """A fresh directory for one persisted session."""
    return tmp_path / "session"


@pytest.fixture
def fsynced_kinds(monkeypatch) -> list:
    """Record every ``os.fsync`` as ``"dir"`` or ``"file"`` (then fsync it)."""
    import os
    import stat

    kinds: list = []
    real_fsync = os.fsync

    def recording_fsync(descriptor):
        mode = os.fstat(descriptor).st_mode
        kinds.append("dir" if stat.S_ISDIR(mode) else "file")
        return real_fsync(descriptor)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return kinds
