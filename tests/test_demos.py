"""Each script in demos/ runs to the end in-process, warnings as errors.

A library change that breaks a demo then fails the tier-1 suite on every
Python version it runs on.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert {p.stem for p in DEMOS} >= {"single_mode_estimation", "witness_verification"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
