"""Smoke test: every narrative script under demos/ runs to completion.

Each demo runs in process with runpy, from a temporary working directory
and with the temporary-file root redirected there, so the scratch
directories some demos create are cleaned up with the test's own.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
