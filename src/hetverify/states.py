"""Qubit state containers and structural operations on them.

Convention used throughout the package: qubit 0 is the most significant
bit of the computational-basis index, so for an n-qubit register the
basis state |b0 b1 ... b_{n-1}> lives at index sum(b_q << (n-1-q)).
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state vector not normalized: |psi| = {norm}")

    @classmethod
    def computational(cls, bits: str) -> "StateVector":
        """Basis state from a bitstring label, e.g. '1100'."""
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    def density(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.num_qubits, mat, physical=True)

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "amplitudes": [[float(z.real), float(z.imag)] for z in self.amplitudes],
        }


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix over `num_qubits` qubits.

    `physical` records whether the matrix is a valid quantum state
    (positive semi-definite, trace one).  Raw tomographic reconstructions
    may violate positivity; they carry physical=False and are still
    accepted by the distance/fidelity helpers that tolerate it.
    """

    num_qubits: int
    matrix: np.ndarray
    physical: bool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-7:
            raise ValueError("density matrix is not Hermitian")
        if self.physical is None:
            object.__setattr__(self, "physical", self._check_physical(mat))
        elif self.physical and not self._check_physical(mat):
            raise ValueError("matrix claimed physical but is not PSD/unit-trace")

    @staticmethod
    def _check_physical(mat: np.ndarray) -> bool:
        if abs(np.trace(mat).real - 1.0) > TRACE_ATOL:
            return False
        return float(np.linalg.eigvalsh(mat).min()) >= -EIGVAL_ATOL

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "matrix": matrix_to_json(self.matrix),
            "physical": bool(self.physical),
        }


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Distribution over bitstring outcomes of a fixed register."""

    outcomes: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        # Tiny negatives from floating-point rotation arithmetic are zeroed.
        if probs.min() < -PROB_ATOL:
            raise ValueError(f"negative probability: {probs.min()}")
        probs = np.clip(probs, 0.0, None)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) != probs.size:
            raise ValueError("outcome/probability length mismatch")
        if abs(probs.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")


def tensor_product(a, b):
    """Kronecker composition of two states of the same kind.

    The result's qubit order is a's qubits followed by b's.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.num_qubits + b.num_qubits,
                           np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.num_qubits + b.num_qubits,
                             np.kron(a.matrix, b.matrix),
                             physical=True if (a.physical and b.physical) else None)
    raise TypeError(
        f"operands must both be StateVector or both DensityMatrix, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep`; result ordered by ascending index."""
    keep = sorted(set(keep))
    n = rho.num_qubits
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"qubit index out of range for {n}-qubit state: {keep}")
    tensor = rho.matrix.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    for offset, q in enumerate(traced):
        axis = q - offset  # earlier traces shift axes
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), tensor.reshape(dim, dim),
                         physical=True if rho.physical else None)


def condition_on_ancilla(rho: DensityMatrix, qubit: int, outcome: int) -> DensityMatrix:
    """Project one qubit onto a computational outcome, drop it, and
    renormalize the rest to a proper state."""
    n = rho.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    tensor = rho.matrix.reshape([2] * (2 * n))
    block = np.take(np.take(tensor, outcome, axis=qubit), outcome, axis=qubit + n - 1)
    dim = 2 ** (n - 1)
    block = block.reshape(dim, dim)
    prob = np.trace(block).real
    if prob < 1e-12:
        raise ValueError(
            f"conditioning on outcome {outcome} of qubit {qubit} has "
            f"probability {prob:.3e}; renormalization undefined"
        )
    return DensityMatrix(n - 1, block / prob, physical=None)


def project_to_physical(rho: DensityMatrix) -> DensityMatrix:
    """Closest (2-norm) PSD unit-trace matrix to a raw reconstruction.

    Eigenvalues are clipped at zero starting from the most negative,
    with the deficit redistributed over the remaining ones so the trace
    stays one (Smolin-Gambetta-Smith construction).
    """
    mat = rho.matrix / np.trace(rho.matrix).real
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() >= 0:
        return DensityMatrix(rho.num_qubits, mat, physical=True)

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
    return DensityMatrix(rho.num_qubits, projected, physical=True)
