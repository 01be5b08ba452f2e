"""Fidelity and distance measures between states and distributions."""
from __future__ import annotations

import numpy as np

from .states import DensityMatrix, StateVector, EIGVAL_ATOL, PROB_ATOL


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
    """Dominant eigenvector if rho is numerically rank one with eigenvalue one, else None."""
    eigvals, eigvecs = np.linalg.eigh(rho.matrix)
    if abs(eigvals[-1] - 1.0) < 1e-9 and np.abs(eigvals[:-1]).max() < 1e-9:
        return eigvecs[:, -1]
    return None


def _pure_fidelities(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """`fidelity`'s pure-target formula sqrt(max(Re <t|a|t>, 0)) for each
    matrix a of a (..., d, d) stack and pure vector t of a (..., d) stack,
    as one batched product."""
    overlap = (vectors.conj()[..., None, :] @ matrices @ vectors[..., :, None]).real
    return np.sqrt(np.maximum(overlap[..., 0, 0], 0.0))


def fidelity(a, b) -> float:
    """Square-root (Uhlmann) fidelity Tr sqrt(sqrt(a) b sqrt(a)).

    This is the non-squared convention: for a pure target b = |s><s| it
    equals sqrt(<s|a|s>), and a StateVector b gives |s> with no eigh.
    Either side may be a StateVector; two of them give |<a|b>|.
    `_pure_fidelities` applies the same formula to a stack of states.
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
            if isinstance(other, StateVector):
                return float(abs(np.vdot(vec, other.amplitudes)))
            overlap = float(np.real(vec.conj() @ other.matrix @ vec))
            return float(np.sqrt(max(overlap, 0.0)))
    sqrt_a = matrix_sqrt_psd(a.matrix)
    inner = sqrt_a @ b.matrix @ sqrt_a
    return float(np.trace(matrix_sqrt_psd(inner)).real)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma; either may be a StateVector."""
    if rho.num_qubits != sigma.num_qubits:
        raise ValueError(
            f"dimension mismatch: {rho.num_qubits} vs {sigma.num_qubits} qubits"
        )
    rho, sigma = (s.density() if isinstance(s, StateVector) else s for s in (rho, sigma))
    eigvals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.sum(np.abs(eigvals)) / 2)


def total_variation_distance(p, q) -> float:
    """Half the L1 distance between two probability vectors of one length,
    each with no entry below -PROB_ATOL and, those set to zero, a sum
    within PROB_ATOL of 1.  Every check is written so that NaN fails it."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape or not p.size:
        raise ValueError("need two probability vectors of one length, got shapes "
                         f"{p.shape} and {q.shape}")
    for name, probs in (("p", p), ("q", q)):
        low, total = probs.min(), np.clip(probs, 0.0, None).sum()
        if not low >= -PROB_ATOL:
            raise ValueError(f"{name}: negative or NaN probability: {low}")
        if not abs(total - 1.0) <= PROB_ATOL:
            raise ValueError(f"{name}: probabilities sum to {total}, not 1")
    return float(np.sum(np.abs(np.clip(p, 0.0, None) - np.clip(q, 0.0, None))) / 2)
