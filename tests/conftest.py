import itertools
from types import MappingProxyType

import numpy as np
import pytest

from hetverify.circuits import ShotTable
from hetverify.states import DensityMatrix, StateVector, partial_trace

# The single-qubit Pauli matrices, the oracle for the Pauli-string tables.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def shot_table(setting, counts):
    """A one-row ShotTable from a {bitstring: count} dict; outcomes not
    named count 0."""
    vector = np.zeros(2**len(setting), dtype=np.int64)
    for bits, count in counts.items():
        vector[int(bits or "0", 2)] = count
    return ShotTable((setting,), vector[None])


def outcome_labels(width):
    """Bitstring labels of a `width`-bit register in index order, the
    outcome order of count rows and measured probabilities."""
    return tuple(map("".join, itertools.product("01", repeat=width)))


def counts(table):
    """Read-only {bitstring: count} view of the outcomes a one-row table
    drew at least once, in index order."""
    (setting,), (row,) = table.settings, table.counts.tolist()
    return MappingProxyType({bits: c for bits, c in zip(outcome_labels(len(setting)), row)
                             if c})


def cell(table, pair, mode):
    """One fidelity of a `qkd_table` dict, by (encode, decode) pair and mode label."""
    return table["rows"]["-".join(pair)][mode]
