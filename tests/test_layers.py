"""The benchmark's traced layers stay where bench/spans.py looks for them.

The benchmark's traced mode wraps the functions named in `LAYERS` and
fails if a workload stops calling one of them.  These tests run the same
check in the ordinary test suite: every target resolves, and one sampled
sweep makes the calls each layer counts on.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import hetverify.tomography
from hetverify.circuits import Circuit, NoiseModel, ShotTable, cu3, u3, x

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", [t for targets in load_spans().LAYERS.values()
                                    for t in targets])
def test_layer_target_resolves(target):
    module_name, *owners, attribute = target.split(".")
    owner = importlib.import_module(f"hetverify.{module_name}")
    for name in owners:
        owner = getattr(owner, name)
    assert callable(getattr(owner, attribute))


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("num_system", [1, 2, 3, 4])
def test_sampled_sweep_calls_each_traced_layer(monkeypatch, num_system):
    # System qubits first, then an ancilla in |1> controlling each of them.
    ancilla = num_system
    gates = [u3(q, 0.4 + q, 0.1, 0.2) for q in range(num_system)] + [x(ancilla)]
    gates += [cu3(ancilla, q, 0.3, 0.0, 0.0) for q in range(num_system)]
    circuit = Circuit(num_system + 1, gates, ancilla=ancilla)
    calls = {}
    for name in ("measure_in_basis", "sample_shots", "expectations_from_tables"):
        counting(monkeypatch, hetverify.tomography, name, calls)
    counting(monkeypatch, ShotTable, "postselect", calls)
    hetverify.tomography.tomography_sweep([circuit], shots=64, seeds=[3],
                                          noise=NoiseModel(0.01, 0.02, 0.01))
    # One stacked call of each, whatever the number of settings.
    assert calls == {"measure_in_basis": 1, "sample_shots": 1,
                     "postselect": 1, "expectations_from_tables": 1}


def test_sweep_over_two_layouts_measures_once_per_layout(monkeypatch):
    # Alternating layouts: one system qubit with an ancilla after it, and
    # two system qubits with none.
    with_ancilla = [Circuit(2, [u3(0, 0.3 + i, 0.1, 0.2), x(1), cu3(1, 0, 0.4, 0.0, 0.0)],
                            ancilla=1) for i in range(3)]
    without = [Circuit(2, [u3(0, 0.5 + i, 0.0, 0.1), cu3(0, 1, 0.7, 0.2, 0.0)])
               for i in range(2)]
    circuits = [with_ancilla[0], without[0], with_ancilla[1], without[1], with_ancilla[2]]
    calls = {}
    for name in ("measure_in_basis", "sample_shots", "expectations_from_tables"):
        counting(monkeypatch, hetverify.tomography, name, calls)
    counting(monkeypatch, ShotTable, "postselect", calls)
    drawn = []
    sample = hetverify.tomography.sample_shots

    def recording(probabilities, shots, seed, settings):
        drawn.append(len(settings))
        return sample(probabilities, shots, seed, settings)

    monkeypatch.setattr(hetverify.tomography, "sample_shots", recording)
    shapes = []
    assemble = hetverify.tomography.expectations_from_tables

    def shaped(table):
        shapes.append(table.counts.shape)
        return assemble(table)

    monkeypatch.setattr(hetverify.tomography, "expectations_from_tables", shaped)
    hetverify.tomography.tomography_sweep(circuits, shots=64, seeds=list(range(5)),
                                          noise=NoiseModel(0.01, 0.02, 0.01))
    # One draw per circuit, in input order; one measurement and one
    # assembly per layout, and one post-selection for the layout with an
    # ancilla, each on the layout's stacked tables.
    assert calls == {"measure_in_basis": 2, "sample_shots": 5,
                     "postselect": 1, "expectations_from_tables": 2}
    assert drawn == [3, 9, 3, 9, 3]
    # Circuits x settings x outcomes, the ancilla's bit dropped.
    assert shapes == [(3, 3, 2), (2, 9, 4)]
