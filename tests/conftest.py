import numpy as np
import pytest

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


def random_pure(rng, num_qubits=1):
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, vec / np.linalg.norm(vec))


def marginals(rho):
    """Single-qubit marginals of every qubit, in order."""
    return [partial_trace(rho, [q]) for q in range(rho.num_qubits)]
