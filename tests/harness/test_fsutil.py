"""Tests for the crash-safe atomic-write primitive (harness/fsutil.py)."""

import json
import os

import pytest

from repro.harness import fsutil
from repro.harness.fsutil import atomic_write_bytes, atomic_write_json


def test_replaces_existing_content(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old, and longer than the new content\n")
    atomic_write_bytes(path, b"new\n")
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_rename_keeps_the_old_file_and_no_temp(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "report.json"
    path.write_bytes(b"old\n")

    def broken_replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(fsutil.os, "replace", broken_replace)
    with pytest.raises(OSError, match="injected rename failure"):
        atomic_write_bytes(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_creates_missing_parent_directories(tmp_path):
    # `bench --json nope/deeper/x.json` must not lose a finished campaign
    # to a FileNotFoundError at the very last step.
    path = tmp_path / "nope" / "deeper" / "x.json"
    atomic_write_json(path, {"ok": True})
    assert json.loads(path.read_text()) == {"ok": True}
    assert os.listdir(path.parent) == ["x.json"]
