"""Every script under ``demos/`` runs to completion."""

import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    # A demo that writes artifacts puts them under a fresh temporary directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv("UAVMEC_OUTPUT_ROOT", raising=False)
    runpy.run_path(str(path), run_name="__main__")
