"""Golden outputs of every CLI command at fixed seeds.

`data/golden_cli.json` holds, for each argv below, the exit code, the
report's `result` block, a SHA-256 over every shot table the run
sampled (setting, sorted counts, shots, in draw order) and a SHA-256
over the run's other deterministic outputs (see `outputs_digest`).  A
change to the simulation or tomography code must keep every table and
every other output byte-identical, every exit code equal and every
`result` float within 1e-12.

Rewrite the fixture only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py

The recorder rewrites only the entries whose exit code or a hash
differs, or whose `result` moved by more than 1e-12, so last-digit
differences between hosts stay out of the diff.
"""
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

import hetverify.tomography
from hetverify.cli import main

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "golden_cli.json"
CIRCUIT_KEY = "data/golden_circuit.json"  # as fixture keys name it
CIRCUIT = str(Path(__file__).parent / CIRCUIT_KEY)
RESULT_ATOL = 1e-12

NOISE = ["--noise-1q", "0.01", "--noise-2q", "0.02", "--readout-flip", "0.02"]
RUNS = [
    ["protocol1"],
    ["protocol1", "--initial", "0.6,0.8"],
    ["protocol1", "--shots", "1024", "--seed", "4", *NOISE],
    ["protocol1", "--exact", "--initial", "0.6,0.8", *NOISE],
    ["protocol2", "--seed", "7", *NOISE],
    ["protocol2", "--seed", "7", "--noise-1q", "0.01"],
    ["protocol2", "--exact", *NOISE],
    ["protocol2", "--exact", "--initial", "1010", "--zeta", "0"],
    ["protocol3", "--shots", "256", "--seed", "1"],
    ["protocol3", "--exact", "--noise-1q", "0.3", "--noise-2q", "0.3"],
    ["qkd-single", "--initial", "0"],
    ["qkd-single", "--initial", "1"],
    ["qkd-single", "--exact", "--initial", "1", *NOISE],
    ["qkd-bell"],
    ["qkd-bell", "--exact", "--seed", "2", *NOISE],
    ["tomography", CIRCUIT],
    ["tomography", CIRCUIT, "--seed", "3", *NOISE],
    ["tomography", CIRCUIT, "--exact", *NOISE],
]


def _key(argv) -> str:
    """Fixture key: the argv with the circuit path made repo-relative."""
    return " ".join(CIRCUIT_KEY if a == CIRCUIT else a for a in argv)


def outputs_digest(outdir) -> str:
    """SHA-256 over what a run writes, less its volatile fields and `result`.

    Each file counts in name order: a report by its `config` (without
    `output_dir`, with the circuit path as in the fixture keys),
    `hardware_reference` and `provenance` version and seed; every other
    file, CSV tables and plot data, by its bytes.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_report.json"):
            report = json.loads(data)
            params = report["config"]["parameters"]
            del params["output_dir"]
            if params.get("circuit") == CIRCUIT:
                params["circuit"] = CIRCUIT_KEY
            kept = {"config": report["config"],
                    "hardware_reference": report["hardware_reference"],
                    "version": report["provenance"]["version"],
                    "seed": report["provenance"]["seed"]}
            data = json.dumps(kept, sort_keys=True).encode()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run_cli(argv, outdir, patch) -> dict:
    """Run one command; return its exit code, result and both hashes."""
    digest = hashlib.sha256()
    sample_shots = hetverify.tomography.sample_shots

    def recording(*args, **kwargs):
        table = sample_shots(*args, **kwargs)
        # One record per row, as when each setting was drawn by its own call.
        for setting, row in zip(table.settings, table.counts.tolist()):
            labels = map("".join, itertools.product("01", repeat=len(setting)))
            drawn = [(bits, c) for bits, c in zip(labels, row) if c]
            digest.update(json.dumps([setting, drawn, sum(row)]).encode())
        return table

    patch(hetverify.tomography, "sample_shots", recording)
    code = main([*argv, "--output-dir", str(outdir)])
    reports = list(Path(outdir).glob("*_report.json"))
    result = json.loads(reports[0].read_text())["result"] if reports else None
    return {"exit_code": code, "result": result,
            "shot_tables_sha256": digest.hexdigest(),
            "outputs_sha256": outputs_digest(outdir)}


def assert_close(actual, expected, path="result"):
    """Equal structure and values, floats within RESULT_ATOL."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, (int, float)), path
        assert math.isclose(actual, expected, rel_tol=0.0,
                            abs_tol=RESULT_ATOL), (path, actual, expected)
    else:
        assert actual == expected, path


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def assert_matches(actual, expected):
    """Equal exit code and hashes, `result` within RESULT_ATOL."""
    assert actual["exit_code"] == expected["exit_code"]
    assert actual["shot_tables_sha256"] == expected["shot_tables_sha256"]
    assert actual["outputs_sha256"] == expected["outputs_sha256"]
    assert_close(actual["result"], expected["result"])


@pytest.mark.parametrize("argv", RUNS, ids=_key)
def test_cli_matches_golden(argv, tmp_path, monkeypatch):
    assert_matches(run_cli(argv, tmp_path, monkeypatch.setattr),
                   GOLDEN[_key(argv)])


def _matches(actual, expected) -> bool:
    try:
        assert_matches(actual, expected)
    except AssertionError:
        return False
    return True


def _record():
    golden, changed = {}, []
    for argv in RUNS:
        key = _key(argv)
        with tempfile.TemporaryDirectory() as outdir, \
                pytest.MonkeyPatch.context() as patch:
            actual = run_cli(argv, outdir, patch.setattr)
        if key in GOLDEN and _matches(actual, GOLDEN[key]):
            golden[key] = GOLDEN[key]
        else:
            golden[key] = actual
            changed.append(key)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"rewrote {len(changed)} of {len(golden)} runs in "
          f"{os.path.relpath(FIXTURE)}", file=sys.stderr)
    for key in changed:
        print(f"  {key}", file=sys.stderr)


if __name__ == "__main__":
    if not __debug__:  # -O strips the asserts that _matches relies on
        sys.exit("run the recorder without -O")
    _record()
