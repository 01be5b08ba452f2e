from types import MappingProxyType

import numpy as np
import pytest

from hetverify.circuits import ShotTable, _outcomes
from hetverify.states import DensityMatrix, StateVector, partial_trace


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, num_qubits):
    """Ginibre-induced random full-rank state."""
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(num_qubits, mat / np.trace(mat).real)


def with_spectrum(rng, eigenvalues):
    """Hermitian matrix with the given eigenvalues; its eigenbasis is the
    Q factor of a complex Ginibre matrix."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    dim = eigenvalues.size
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (q * eigenvalues) @ q.conj().T
    return DensityMatrix(dim.bit_length() - 1, (mat + mat.conj().T) / 2)


def random_unphysical(rng, num_qubits):
    """Trace-one Hermitian matrix with one eigenvalue in [-0.2, -0.01], like
    a raw reconstruction from few shots."""
    shift = rng.uniform(0.01, 0.2)
    rest = rng.dirichlet(np.ones(2**num_qubits - 1)) * (1 + shift)
    return with_spectrum(rng, [-shift, *rest])


def random_pure(rng, num_qubits=1):
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, vec / np.linalg.norm(vec))


def marginals(rho):
    """Single-qubit marginals of every qubit, in order."""
    return [partial_trace(rho, [q]) for q in range(rho.num_qubits)]


def shot_table(setting, counts, shots):
    """A ShotTable from a {bitstring: count} dict; outcomes not named count 0."""
    vector = np.zeros(2**len(setting), dtype=np.int64)
    for bits, count in counts.items():
        vector[int(bits or "0", 2)] = count
    return ShotTable(setting, vector, shots)


def counts(table):
    """Read-only {bitstring: count} view of the outcomes a table drew at
    least once, in index order."""
    return MappingProxyType({bits: c for bits, c in zip(
        _outcomes(len(table.setting)), table.vector.tolist()) if c})
