"""Linear-inversion state tomography from basis-resolved shot counts.

An expectation set maps Pauli strings (over I/X/Y/Z) to real expectation
values.  Reconstruction is the standard Pauli sum
rho = (1/2^m) * sum_P <P> P, computed as one product of the expectation
vector with the stacked Pauli-string matrices of `_pauli_stack`; the
single-qubit Bloch formula is its m = 1 case.

Counts are assembled into expectations with a Walsh-Hadamard transform.
Each setting's count vector, indexed by outcome with qubit 0 the most
significant bit, is copied in as one row of a count array over the 2^m
outcomes; no outcome label is read.  One product with the +-1 matrix
H^{(x)m}, whose entry (b, a) is the parity (-1)^popcount(b & a), gives
every subset parity sum for every setting at once.  A Pauli string
reads the column of its non-identity positions, a, from every setting
that matches its non-identity letters, and the shot-weighted mean over
those settings is its estimate.  Which strings each setting can estimate, and from which
column, depends only on m and is worked out once from the 4^m x 3^m
string-by-setting compatibility mask.

The sweep always measures the circuit's system qubits and post-selects
on the ancilla, if there is one, reading 1.  The ancilla is the last
readout bit, so post-selection keeps every second entry of each count
vector.  The exact sweep (shots=None) needs no counts.  It conditions
the circuit's density matrix, readout flips included, on the ancilla,
which leaves exactly the system qubits in ascending order, and reads
all 4^m expectations Tr(P rho) in one contraction with the same stack.
Reconstruction is the inverse contraction over that stack, so an exact
sweep followed by reconstruction returns the conditioned state.
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
    seed_sequence,
)
from .metrics import fidelity
from .states import (
    DensityMatrix,
    StateVector,
    condition_on_ancilla,
)

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
    """Index arrays shared by every assembly over `num_qubits` qubits.

    Returns (strings, reach, walsh).  `strings` are the
    4^m - 1 non-identity Pauli strings in pauli_strings order.  For each
    setting, reach[setting] holds the indices of the strings it can
    estimate and the Walsh-Hadamard column of each, the bitmask of its
    non-identity positions (qubit 0 the most significant bit).
    walsh[b, a] = (-1)^popcount(b & a).  The arrays are read-only
    because every caller shares them.
    """
    strings = pauli_strings(num_qubits)[1:]
    letters = np.array(list(itertools.product(range(4), repeat=num_qubits)),
                       dtype=np.int8).reshape(-1, num_qubits)[1:]
    bases = np.array(list(itertools.product(range(1, 4), repeat=num_qubits)),
                     dtype=np.int8).reshape(-1, num_qubits)
    compatible = np.ones((len(strings), len(bases)), dtype=bool)
    for q in range(num_qubits):
        column = letters[:, q, None]
        compatible &= (column == 0) | (column == bases[None, :, q])
    parity = (letters != 0) @ (1 << np.arange(num_qubits - 1, -1, -1))
    reach = {}
    for s, setting in enumerate(itertools.product("XYZ", repeat=num_qubits)):
        hits = np.flatnonzero(compatible[:, s])
        reach["".join(setting)] = (hits, parity[hits])
    # Every entry is exactly +-1, so the real part of the complex chain is exact.
    walsh = _embed(dict.fromkeys(range(num_qubits), _WALSH_2), num_qubits).real.copy()
    for array in (walsh, *itertools.chain.from_iterable(reach.values())):
        array.setflags(write=False)
    return strings, reach, walsh


def expectations_from_tables(tables, num_qubits: int) -> dict:
    """Assemble the full 4^m expectation set from 3^m setting tables.

    Strings with identity positions are estimated from every compatible
    setting, weighted by shot count; tables with no shots are skipped,
    and a later table for a setting replaces an earlier one.
    """
    strings, reach, walsh = _assembly_layout(num_qubits)
    by_setting = {t.setting: t for t in tables}
    for setting in by_setting:
        if setting not in reach:
            raise ValueError(f"setting {setting!r} is not {num_qubits} "
                             "letters from X, Y, Z")
    used = [t for t in by_setting.values() if t.shots > 0]
    # A table's setting has num_qubits letters, so its count vector has
    # one entry per column.
    counts = np.zeros((len(used), len(walsh)))
    for row, table in enumerate(used):
        counts[row] = table.vector
    shots = np.array([t.shots for t in used], dtype=float)[:, None]
    # Per-table estimate times its shots, added table by table in
    # by_setting order: every term and every partial sum rounds exactly
    # as in a per-string loop over the tables' parity averages.
    weighted = (counts @ walsh) / shots * shots
    num = np.zeros(len(strings))
    den = np.zeros(len(strings))
    for table, terms in zip(used, weighted):
        hits, columns = reach[table.setting]
        num[hits] += terms[columns]
        den[hits] += table.shots
    missing = np.flatnonzero(den == 0)
    if missing.size:
        raise ValueError(f"no shot table can estimate {strings[missing[0]]!r}")
    expectations = {"I" * num_qubits: 1.0}
    expectations.update(zip(strings, (num / den).tolist()))
    return expectations


def reconstruct_single_qubit(expectations: dict) -> DensityMatrix:
    """Bloch-vector reconstruction from <X>, <Y>, <Z>."""
    return reconstruct_multi_qubit({**expectations, "I": 1.0}, 1)


def reconstruct_multi_qubit(expectations: dict, num_qubits: int = None) -> DensityMatrix:
    """Pauli-sum reconstruction; the result may be unphysical for noisy data."""
    if num_qubits is None:
        num_qubits = len(next(iter(expectations)))
    try:
        values = [expectations[s] for s in pauli_strings(num_qubits)]
    except KeyError as err:
        raise ValueError("incomplete expectation set, "
                         f"missing e.g. {err.args[0]!r}") from None
    dim = 2**num_qubits
    mat = (np.array(values) @ _pauli_stack(num_qubits).reshape(dim * dim, -1)
           ).reshape(dim, dim)
    mat = (mat + mat.conj().T) / (2 * dim)
    return DensityMatrix(num_qubits, mat, physical=None)


def tomography_sweep(circuit: Circuit, shots: int = None, seed: int = 0,
                     noise: NoiseModel = None) -> dict:
    """Run all 3^k basis settings over the circuit's system qubits and
    assemble the full expectation set.

    shots=None uses exact probabilities; otherwise each setting is
    sampled with a child seed derived from `seed`.  When the circuit has
    an ancilla it is read out in Z and the data is conditioned on it
    reading 1.  Readout flips come with the simulated state, so the
    exact sweep is the expectation of the sampled one.
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
            rho = condition_on_ancilla(rho, circuit.ancilla, 1)
        values = np.einsum("kij,ji->k", _pauli_stack(len(measured)), rho.matrix)
        return dict(zip(pauli_strings(len(measured)), values.real.tolist()))

    if noise.is_trivial:
        state = run_statevector(circuit)
    else:
        state = run_density_matrix(circuit, noise)

    # The ancilla is read out in Z after the system qubits.
    readout, suffix = ((measured + [circuit.ancilla], "Z") if postselect
                       else (measured, ""))
    settings = ["".join(s) + suffix
                for s in itertools.product("XYZ", repeat=len(measured))]
    children = seed_sequence(seed).spawn(len(settings))
    tables = []
    for setting, child in zip(settings, children):
        dist = measure_in_basis(state, setting, readout)
        table = sample_shots(dist, shots, child, setting=setting)
        if postselect:
            table = table.postselect(len(measured), 1)
            if table.shots == 0:
                raise ValueError(
                    f"setting {table.setting!r}: post-selecting ancilla outcome "
                    f"1 kept 0 of {shots} shots")
        tables.append(table)
    return expectations_from_tables(tables, len(measured))


def reduced_fidelities(marginals, targets) -> list:
    """Fidelity of each single-qubit marginal against its pure target, a
    state vector or a density matrix."""
    if len(targets) != len(marginals):
        raise ValueError(f"need one target per qubit ({len(marginals)}), "
                         f"got {len(targets)}")
    return [fidelity(m, t.density() if isinstance(t, StateVector) else t)
            for m, t in zip(marginals, targets)]
