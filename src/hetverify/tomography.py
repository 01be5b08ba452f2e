"""Linear-inversion state tomography from basis-resolved shot counts.

An expectation set maps Pauli strings (over I/X/Y/Z) to real expectation
values.  Reconstruction is the standard Pauli sum
rho = (1/2^m) * sum_P <P> P, computed as one product of the expectation
vector with the stacked Pauli-string matrices of `_pauli_stack`; the
single-qubit Bloch formula is its m = 1 case.

Counts are assembled into expectations with a Walsh-Hadamard transform.
A shot table's count matrix, a row per setting indexed by outcome with
qubit 0 the most significant bit, is multiplied once by the +-1 matrix
H^{(x)m}, whose entry (b, a) is the parity (-1)^popcount(b & a): that
gives every subset parity sum of every setting, and no outcome label is
read.  A Pauli string reads the column of its non-identity positions, a,
from every setting that matches its non-identity letters, and the
shot-weighted mean over those settings is its estimate.  Which string
each setting estimates from each column depends only on m and is worked
out once.

The sweep always measures the circuit's system qubits and post-selects
on the ancilla, if there is one, reading 1, with one call of each layer
for all 3^m settings.  A stacked `measure_in_basis` call gives every
distribution, and `sample_shots` draws every row with its own child
seed's Generator, seeded by `spawn_generators` in one pass.  The ancilla
is the last readout bit, so post-selection keeps every second column of
the count matrix.  The exact sweep (shots=None) needs no counts.  It
conditions the circuit's density matrix, readout flips included, on the
ancilla, which leaves exactly the system qubits in ascending order, and
reads all 4^m expectations Tr(P rho) in one contraction with the same
stack.  Reconstruction is the inverse contraction over that stack, so an
exact sweep followed by reconstruction returns the conditioned state.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .circuits import (
    Circuit,
    NoiseModel,
    _embed,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    spawn_generators,
)
from .metrics import fidelity
from .states import DensityMatrix, condition_on_ancilla

MAX_MEASURED_QUBITS = 4

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_WALSH_2 = np.array([[1, 1], [1, -1]], dtype=complex)  # unnormalized Hadamard


@lru_cache(maxsize=None)
def pauli_strings(num_qubits: int) -> tuple:
    """All 4^m strings over {I, X, Y, Z}, 'I...I' first."""
    return tuple(map("".join, itertools.product("IXYZ", repeat=num_qubits)))


@lru_cache(maxsize=None)
def _pauli_stack(num_qubits: int) -> np.ndarray:
    """Matrices of pauli_strings(num_qubits), stacked in that order."""
    dim = 2**num_qubits
    stack = np.empty((dim * dim, dim, dim), dtype=complex)
    for pauli, string in zip(stack, pauli_strings(num_qubits)):
        pauli[...] = _embed({q: PAULI_MATRICES[letter]
                             for q, letter in enumerate(string)}, num_qubits)
    stack.setflags(write=False)  # shared by every caller
    return stack


@lru_cache(maxsize=None)
def _assembly_layout(num_qubits: int):
    """Read-only arrays shared by every assembly over `num_qubits` qubits.

    Returns (strings, index, hits, walsh): the 4^m - 1 non-identity
    Pauli strings in pauli_strings order, and for the subsets a = 1, ...,
    2^m - 1 of a setting's letters (qubit 0 the most significant bit),
    hits[index[setting], a - 1], the string that keeps those letters and
    sets the rest to I, and walsh[b, a - 1] = (-1)^popcount(b & a).
    """
    strings = pauli_strings(num_qubits)[1:]
    bases = np.array(list(itertools.product(range(1, 4), repeat=num_qubits)), dtype=int)
    order = np.arange(num_qubits - 1, -1, -1)  # qubit 0 the most significant
    subsets = np.arange(1, 2**num_qubits)[:, None] >> order & 1
    # A string's index in base 4, less the all-identity string before it.
    hits = (bases[:, None, :] * subsets) @ 4**order - 1
    index = {"".join(s): i for i, s in
             enumerate(itertools.product("XYZ", repeat=num_qubits))}
    # Every entry is exactly +-1, so the real part of the complex chain is exact.
    full = _embed(dict.fromkeys(range(num_qubits), _WALSH_2), num_qubits)
    walsh = full.real[:, 1:].copy()
    for array in (hits, walsh):
        array.setflags(write=False)
    return strings, index, hits, walsh


def expectations_from_tables(table, num_qubits: int) -> dict:
    """Assemble the full 4^m expectation set from one ShotTable's rows.

    Strings with identity positions are estimated from every compatible
    setting, weighted by shot count; rows with no shots are skipped,
    and a later row for a setting replaces an earlier one.
    """
    strings, index, hits, walsh = _assembly_layout(num_qubits)
    if len(table.settings[0]) != num_qubits:
        raise ValueError(f"setting {table.settings[0]!r} is not {num_qubits} "
                         "letters from X, Y, Z")
    # Each setting's last row, in the order the settings first appear.
    last = {setting: row for row, setting in enumerate(table.settings)}
    row_shots = table.counts.sum(axis=1).tolist()
    used = [row for row in last.values() if row_shots[row]]
    shots = np.array([row_shots[row] for row in used], dtype=float)[:, None]
    # Each row's estimates times its shots, from exact integer products.
    # bincount adds them row by row, so every partial sum rounds exactly
    # as in a per-string loop over the rows' parity averages.
    weighted = (table.counts[used] @ walsh) / shots * shots
    targets = hits[[index[table.settings[row]] for row in used]].ravel()
    num = np.bincount(targets, weighted.ravel(), len(strings))
    den = np.bincount(targets, shots.repeat(walsh.shape[1]), len(strings))
    if not den.all():
        raise ValueError(f"no shot table can estimate {strings[den.argmin()]!r}")
    expectations = {"I" * num_qubits: 1.0}
    expectations.update(zip(strings, (num / den).tolist()))
    return expectations


def reconstruct_single_qubit(expectations: dict) -> DensityMatrix:
    """Bloch-vector reconstruction from <X>, <Y>, <Z>."""
    return reconstruct_multi_qubit({**expectations, "I": 1.0}, 1)


def reconstruct_multi_qubit(expectations: dict, num_qubits: int) -> DensityMatrix:
    """Pauli-sum reconstruction; the result may be unphysical for noisy data."""
    try:
        values = [expectations[s] for s in pauli_strings(num_qubits)]
    except KeyError as err:
        raise ValueError("incomplete expectation set, "
                         f"missing e.g. {err.args[0]!r}") from None
    dim = 2**num_qubits
    mat = (np.array(values) @ _pauli_stack(num_qubits).reshape(dim * dim, -1)
           ).reshape(dim, dim)
    mat = (mat + mat.conj().T) / (2 * dim)
    return DensityMatrix(num_qubits, mat)


def tomography_sweep(circuit: Circuit, shots: int = None, seed: int = 0,
                     noise: NoiseModel = None) -> dict:
    """Run all 3^k basis settings over the circuit's system qubits and
    assemble the full expectation set.

    shots=None uses exact probabilities; otherwise one stacked shot table
    draws each setting's row with the Generator of a child seed of `seed`,
    as `spawn_generators` gives them.  A SeedSequence `seed` is not advanced,
    unlike by `SeedSequence.spawn`: two sweeps given the same SeedSequence
    object sample the same tables.  When the circuit has an ancilla it is
    read out in Z and the data is conditioned on it reading 1.  Readout
    flips come with the simulated state, so the exact sweep is the
    expectation of the sampled one.
    """
    measured = list(circuit.system_qubits)
    if not 1 <= len(measured) <= MAX_MEASURED_QUBITS:
        raise ValueError(f"need at least 1 and at most {MAX_MEASURED_QUBITS} "
                         f"measured qubits, got {len(measured)}")
    noise = noise or NoiseModel()
    postselect = circuit.ancilla is not None

    if shots is None:
        rho = run_density_matrix(circuit, noise)
        if postselect:
            rho = condition_on_ancilla(rho, circuit.ancilla)
        values = np.einsum("kij,ji->k", _pauli_stack(len(measured)), rho.matrix)
        return dict(zip(pauli_strings(len(measured)), values.real.tolist()))

    state = (run_statevector(circuit) if noise == NoiseModel()
             else run_density_matrix(circuit, noise))

    # The ancilla is read out in Z after the system qubits.
    readout, suffix = ((measured + [circuit.ancilla], "Z") if postselect
                       else (measured, ""))
    settings = ["".join(s) + suffix
                for s in itertools.product("XYZ", repeat=len(measured))]
    children = spawn_generators(seed, len(settings))
    dist = measure_in_basis(state, settings, readout)
    table = sample_shots(dist.probabilities, shots, children, settings)
    if postselect:
        table = table.postselect(len(measured), 1)
        kept = table.counts.sum(axis=1)
        if not kept.all():
            raise ValueError(f"setting {table.settings[kept.argmin()]!r}: post-selecting "
                             f"ancilla outcome 1 kept 0 of {shots} shots")
    return expectations_from_tables(table, len(measured))


def reduced_fidelities(marginals, targets) -> list:
    """Fidelity of each single-qubit marginal against its pure target, a
    state vector or a density matrix."""
    if len(targets) != len(marginals):
        raise ValueError(f"need one target per qubit ({len(marginals)}), "
                         f"got {len(targets)}")
    return [fidelity(m, t) for m, t in zip(marginals, targets)]
