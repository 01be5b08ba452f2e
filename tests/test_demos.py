"""Each script in demos/ and each Python example in README.md runs to the
end in-process, warnings as errors.

A library change that breaks a demo or an example then fails the tier-1
suite on every Python version it runs on.
"""
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Each README block fenced as python, in order.
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_demos_found():
    assert {p.stem for p in DEMOS} >= {"single_mode_estimation", "witness_verification"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("source", EXAMPLES,
                         ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source):
    # A fresh namespace each, so every example carries its own imports.
    exec(compile(source, "README.md", "exec"), {"__name__": "__main__"})
