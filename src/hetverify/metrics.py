"""Fidelity and distance measures between states and distributions."""
from __future__ import annotations

import numpy as np

from .states import DensityMatrix, ProbabilityDistribution, StateVector, EIGVAL_ATOL


def matrix_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semi-definite matrix.

    Eigenvalues in [-1e-8, 0) are treated as numerical zeros; anything
    more negative is rejected rather than silently clipped.
    """
    mat = np.asarray(mat, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
        raise ValueError("matrix square root requires a Hermitian input")
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() < -EIGVAL_ATOL:
        raise ValueError(
            f"matrix is not PSD (min eigenvalue {eigvals.min():.3e})"
        )
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return (root + root.conj().T) / 2


def _pure_component(rho: DensityMatrix):
    """Dominant eigenvector if the state is numerically rank one, else None."""
    eigvals, eigvecs = np.linalg.eigh(rho.matrix)
    if abs(eigvals[-1] - 1.0) < 1e-9 and np.max(np.abs(eigvals[:-1])) < 1e-9:
        return eigvecs[:, -1]
    return None


def fidelity(a: DensityMatrix, b) -> float:
    """Square-root (Uhlmann) fidelity Tr sqrt(sqrt(a) b sqrt(a)).

    This is the non-squared convention: for a pure target b = |s><s| it
    equals sqrt(<s|a|s>), and a StateVector b gives |s> with no eigh.
    The value is NOT clamped to [0, 1]; a raw, unphysical tomographic
    reconstruction can legitimately score above one, and callers who
    want a proper state should project first.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    # A rank-one spectrum with eigenvalue one is a pure state, so the
    # shortcut needs no other physicality check.  It also covers
    # unphysical partners, for which the full Uhlmann formula is undefined.
    for target, other in ((b, a), (a, b)):
        vec = (target.amplitudes if isinstance(target, StateVector)
               else _pure_component(target))
        if vec is not None:
            overlap = float(np.real(vec.conj() @ other.matrix @ vec))
            return float(np.sqrt(max(overlap, 0.0)))
    sqrt_a = matrix_sqrt_psd(a.matrix)
    inner = sqrt_a @ b.matrix @ sqrt_a
    return float(np.trace(matrix_sqrt_psd(inner)).real)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.num_qubits != sigma.num_qubits:
        raise ValueError(
            f"dimension mismatch: {rho.num_qubits} vs {sigma.num_qubits} qubits"
        )
    eigvals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.sum(np.abs(eigvals)) / 2)


def total_variation_distance(p: ProbabilityDistribution,
                             q: ProbabilityDistribution) -> float:
    """Half the L1 distance between two distributions on the same outcomes."""
    if p.outcomes != q.outcomes:
        raise ValueError("distributions are over different outcome spaces")
    return float(np.sum(np.abs(p.probabilities - q.probabilities)) / 2)
