"""Qubit state containers and structural operations on them.

Convention used throughout the package: qubit 0 is the most significant
bit of the computational-basis index, so for an n-qubit register the
basis state |b0 b1 ... b_{n-1}> lives at index sum(b_q << (n-1-q)).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TRACE_ATOL = 1e-8
EIGVAL_ATOL = 1e-8
PROB_ATOL = 1e-9


def matrix_to_json(matrix: np.ndarray) -> list:
    """Nested [re, im] pairs, row-major; complex JSON encoding."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(matrix)]


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of `num_qubits` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.shape}"
            )
        # The trace of the density, to its tolerance; NaN fails the check.
        norm2 = np.vdot(amps, amps).real
        if not abs(norm2 - 1.0) <= TRACE_ATOL:
            raise ValueError(f"state vector not normalized: |psi|^2 = {norm2}")

    @classmethod
    def computational(cls, bits: str) -> "StateVector":
        """Basis state from a bitstring label, e.g. '1100'."""
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    def density(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.num_qubits, mat)

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "amplitudes": [[float(z.real), float(z.imag)] for z in self.amplitudes],
        }


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix over `num_qubits` qubits.

    `physical` tells whether the matrix is a valid quantum state
    (positive semi-definite, trace one).  Raw tomographic reconstructions
    may violate positivity; they are still accepted by the
    distance/fidelity helpers that tolerate it.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all() or np.max(np.abs(mat - mat.conj().T)) > 1e-7:
            raise ValueError("density matrix is not finite and Hermitian")

    @property
    def physical(self) -> bool:
        """Trace one within TRACE_ATOL and no eigenvalue below -EIGVAL_ATOL,
        computed from the matrix on every read."""
        if abs(np.trace(self.matrix).real - 1.0) > TRACE_ATOL:
            return False
        return float(np.linalg.eigvalsh(self.matrix).min()) >= -EIGVAL_ATOL

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "matrix": matrix_to_json(self.matrix),
            "physical": bool(self.physical),
        }


@lru_cache(maxsize=32)
def _trace_index(n: int, keeps: tuple) -> np.ndarray:
    """Read-only flat indices into a 2^n x 2^n matrix for `keeps`, a tuple
    of ascending keep sets of k qubits each: shape (len(keeps), 2^k, 2^k,
    2^(n-k)).  Entry [s, i, j, t] is the element whose row reads i on the
    qubits of keeps[s] and t on the others, and whose column reads j and t,
    so summing the last axis traces the others out."""
    def basis(qubits):
        # The basis index of each value of `qubits`, the first most
        # significant, with every other qubit 0.
        values = np.arange(2 ** len(qubits))
        index = np.zeros_like(values)
        for place, q in enumerate(reversed(qubits)):
            index |= ((values >> place) & 1) << (n - 1 - q)
        return index

    rows = np.stack([basis(keep)[:, None] + basis([q for q in range(n) if q not in keep])
                     for keep in keeps])
    index = (rows[:, :, None, :] << n) + rows[:, None, :, :]
    index.setflags(write=False)  # shared by every later call
    return index


def _reduce(matrices: np.ndarray, keeps: tuple) -> np.ndarray:
    """The reduced matrix on each keep set of every matrix of a (..., 2^n,
    2^n) stack: one gather and one sum, shape (..., len(keeps), 2^k, 2^k).
    `keeps` is a tuple of ascending keep sets of k qubits each."""
    n = matrices.shape[-1].bit_length() - 1
    flat = matrices.reshape(*matrices.shape[:-2], -1)
    return flat.take(_trace_index(n, keeps), axis=-1).sum(-1)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep`; result ordered by ascending index."""
    keep = sorted(set(keep))
    n = rho.num_qubits
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"qubit index out of range for {n}-qubit state: {keep}")
    kept = tuple(q for q in range(n) if q in keep)  # as ints, for the index
    return DensityMatrix(len(keep), _reduce(rho.matrix, (kept,))[0])


def condition_on_ancilla(rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Project one qubit onto |1>, drop it, and renormalize the rest to a
    proper state."""
    n = rho.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    tensor = rho.matrix.reshape([2] * (2 * n))
    block = np.take(np.take(tensor, 1, axis=qubit), 1, axis=qubit + n - 1)
    dim = 2 ** (n - 1)
    block = block.reshape(dim, dim)
    prob = np.trace(block).real
    if prob < 1e-12:
        raise ValueError(
            f"conditioning on outcome 1 of qubit {qubit} has "
            f"probability {prob:.3e}; renormalization undefined"
        )
    return DensityMatrix(n - 1, block / prob)


def project_to_physical(rho: DensityMatrix) -> DensityMatrix:
    """Closest (2-norm) PSD unit-trace matrix to a raw reconstruction.

    Eigenvalues are clipped at zero starting from the most negative,
    with the deficit redistributed over the remaining ones so the trace
    stays one (Smolin-Gambetta-Smith construction).
    """
    mat = rho.matrix / np.trace(rho.matrix).real
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() >= 0:
        return DensityMatrix(rho.num_qubits, mat)

    vals = eigvals[::-1].copy()  # descending
    new_vals = np.zeros_like(vals)
    acc = 0.0
    i = vals.size
    while vals[i - 1] + acc / i < 0:
        acc += vals[i - 1]
        vals[i - 1] = 0.0
        i -= 1
    new_vals[:i] = vals[:i] + acc / i
    new_vals = new_vals[::-1]
    projected = (eigvecs * new_vals) @ eigvecs.conj().T
    projected = (projected + projected.conj().T) / 2
    return DensityMatrix(rho.num_qubits, projected)
