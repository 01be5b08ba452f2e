"""Fidelity and distance measures between states and distributions."""
from __future__ import annotations

import numpy as np

from .states import StateVector, PROB_ATOL


def _pure_vectors(matrices: np.ndarray):
    """Each matrix m of a (..., d, d) stack read as a vector v, its column at
    its largest diagonal entry over that entry's root, if every m is a pure
    state, else None.  Pure means a trace within 1e-9 of one, which keeps
    that entry positive, and every entry within 1e-9 of |v><v|'s.  A unit
    trace and Tr m^2 = 1 alone would pass diag(2/3, 2/3, -1/3, 0), which is
    not rank one."""
    diagonal = matrices.diagonal(axis1=-2, axis2=-1).real
    if not (abs(diagonal.sum(axis=-1) - 1.0) <= 1e-9).all():
        return None
    top = diagonal.argmax(axis=-1)[..., None, None]
    column = np.take_along_axis(matrices, top, axis=-1)[..., 0]
    vectors = column / np.sqrt(np.take_along_axis(column, top[..., 0], axis=-1).real)
    outer = vectors[..., :, None] * vectors.conj()[..., None, :]
    return vectors if (abs(matrices - outer) <= 1e-9).all() else None


def _pure_fidelities(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """`fidelity`'s pure-target formula sqrt(max(Re <t|a|t>, 0)) for each
    matrix a of a (..., d, d) stack and pure vector t of a (..., d) stack,
    as one batched product."""
    overlap = (vectors.conj()[..., None, :] @ matrices @ vectors[..., :, None]).real
    return np.sqrt(np.maximum(overlap[..., 0, 0], 0.0))


def fidelity(a, b) -> float:
    """Square-root fidelity against whichever side is pure, b first.

    For a pure b = |s><s| it is sqrt(max(Re <s|a|s>, 0)), the Uhlmann
    fidelity Tr sqrt(sqrt(a) b sqrt(a)) in its non-squared convention, and
    two StateVectors give |<a|b>|.  A StateVector is pure, and a
    DensityMatrix is pure if `_pure_vectors` reads its vector, with no
    eigendecomposition; if neither side is pure, ValueError.
    `_pure_fidelities` applies the same formula to a stack of states.
    The value is NOT clamped to [0, 1]; a raw, unphysical tomographic
    reconstruction can legitimately score above one, and callers who
    want a proper state should project first.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    for target, other in ((b, a), (a, b)):
        vec = (target.amplitudes if isinstance(target, StateVector)
               else _pure_vectors(target.matrix))
        if vec is not None:
            if isinstance(other, StateVector):
                return float(abs(np.vdot(vec, other.amplitudes)))
            overlap = float(np.real(vec.conj() @ other.matrix @ vec))
            return float(np.sqrt(max(overlap, 0.0)))
    raise ValueError("fidelity needs a pure state on one side")


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
