"""Linear-inversion state tomography from basis-resolved shot counts.

An expectation set maps Pauli strings (over I/X/Y/Z) to real expectation
values.  Every string is P = i^#Y X^x Z^z for two m-bit masks x and z,
qubit 0 the most significant bit, so P[i ^ x, i] = i^#Y (-1)^popcount(z & i)
and every other entry is 0.  `_pauli_frame` holds that form once per m:
each string's cell (x, z), its phase i^#Y, the flat index of entry
[i ^ x, i], and the +-1 Walsh matrix H, whose entry (b, a) is
(-1)^popcount(b & a).  Reconstruction is the standard Pauli sum
rho = (1/2^m) * sum_P <P> P: put <P> i^#Y at cell (x, z) of a matrix C,
and rho[i ^ x, i] = (C H)[x, i] / 2^m.  The single-qubit Bloch formula is
its m = 1 case.

Counts are assembled into expectations with the same H.  A shot table's
count matrix, a row per setting indexed by outcome with qubit 0 the most
significant bit, is multiplied once by H: that gives every subset parity
sum of every setting, and no outcome label is read.  A Pauli string reads
the column of its non-identity positions, a, from every setting that
matches its non-identity letters, and the shot-weighted mean over those
settings is its estimate.  Which cell each setting estimates from each
column depends only on m and is held in the frame.

The sweep always measures the circuit's system qubits and post-selects
on the ancilla, if there is one, reading 1.  A sweep over many circuits
makes one `measure_in_basis` call per register layout, for all 3^m
settings of all its circuits, and one `spawn_generators` pass that seeds
a Generator per row of every circuit.  The measurement gives each
circuit a 3^m-row probability array in the count rows' outcome order,
and each circuit in input order makes one call of each of
`sample_shots`, post-selection and assembly on it.
The ancilla is the last readout bit, so post-selection keeps every
second column of the count matrix.  The exact sweep (shots=None) needs
no counts.  It conditions the circuit's density matrix, readout flips
included, on the ancilla, which leaves exactly the system qubits in
ascending order, and reads all 4^m expectations
Tr(P rho) = i^#Y (G H)[x, z], with G[x, i] = rho[i, i ^ x], from one
gather and one product.  Reconstruction is the inverse, so an exact
sweep followed by reconstruction returns the conditioned state.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .circuits import (
    NoiseModel,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    spawn_generators,
)
from .metrics import fidelity
from .states import DensityMatrix, condition_on_ancilla

MAX_MEASURED_QUBITS = 4


@lru_cache(maxsize=None)
def pauli_strings(num_qubits: int) -> tuple:
    """All 4^m strings over {I, X, Y, Z}, 'I...I' first."""
    return tuple(map("".join, itertools.product("IXYZ", repeat=num_qubits)))


@lru_cache(maxsize=None)
def _pauli_frame(num_qubits: int):
    """Read-only x/z tables shared by every user over `num_qubits` qubits.

    Returns (cells, phase, lift, walsh, hits, index): each string's cell
    x * 2^m + z and its phase i^#Y, in pauli_strings order; lift[x, i],
    the flat index of entry [i ^ x, i] of a 2^m x 2^m matrix;
    walsh[b, a] = (-1)^popcount(b & a); and for each subset a of a
    setting's letters, hits[index[setting], a], the cell of the string
    that keeps those letters and sets the rest to I.
    """
    dim = 2**num_qubits
    weights = 1 << np.arange(num_qubits - 1, -1, -1)  # qubit 0 the most significant
    # One row of letter codes per string, I, X, Y, Z as 0-3.
    codes = np.array(list(itertools.product(range(4), repeat=num_qubits)), dtype=int)
    x, z = (codes % 3 > 0) @ weights, (codes > 1) @ weights
    outcomes = np.arange(dim)
    bits = (outcomes[:, None] & weights > 0).astype(int)
    settings = (codes > 0).all(axis=1)
    index = {"".join(s): row for row, s in
             enumerate(itertools.product("XYZ", repeat=num_qubits))}
    arrays = (x * dim + z,
              np.array([1, 1j, -1, -1j])[(codes == 2).sum(axis=1) % 4],
              (outcomes[:, None] ^ outcomes) * dim + outcomes,
              1.0 - 2 * (bits @ bits.T & 1),
              (x[settings, None] & outcomes) * dim + (z[settings, None] & outcomes))
    for array in arrays:
        array.setflags(write=False)
    return (*arrays, MappingProxyType(index))


def expectations_from_tables(table, num_qubits: int) -> dict:
    """Assemble the full 4^m expectation set from one ShotTable's rows.

    Strings with identity positions are estimated from every compatible
    setting, weighted by shot count; rows with no shots are skipped,
    and a later row for a setting replaces an earlier one.
    """
    cells, _, _, walsh, hits, index = _pauli_frame(num_qubits)
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
    # as in a per-string loop over the rows' parity averages.  Column 0
    # sums each row to its shots, so the identity reads exactly 1.
    weighted = (table.counts[used] @ walsh) / shots * shots
    targets = hits[[index[table.settings[row]] for row in used]].ravel()
    num = np.bincount(targets, weighted.ravel(), walsh.size)
    den = np.bincount(targets, shots.repeat(len(walsh)), walsh.size)
    strings = pauli_strings(num_qubits)
    if not den.all():
        # The identity lacks shots only if every string does; then name the next.
        missing = den[cells[1:]].argmin() + 1 if len(cells) > 1 else 0
        raise ValueError(f"no shot table can estimate {strings[missing]!r}")
    return dict(zip(strings, (num / den)[cells].tolist()))


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
    cells, phase, lift, walsh = _pauli_frame(num_qubits)[:4]
    coeffs = np.empty(walsh.size, dtype=complex)
    coeffs[cells] = np.array(values) * phase
    # lift pairs [x, i] with [i ^ x, i] both ways, so one gather places
    # every row.  Row x's columns i and i ^ x sum the same terms, the second
    # conjugated, so real expectations give a Hermitian matrix.
    mat = np.dot(coeffs.reshape(walsh.shape), walsh).take(lift) / len(walsh)
    return DensityMatrix(num_qubits, mat)


def tomography_sweep(circuit, shots: int = None, seed=0, noise: NoiseModel = None):
    """Run all 3^k basis settings over the circuit's system qubits and
    assemble the full expectation set.

    shots=None uses exact probabilities; otherwise one stacked shot table
    draws each setting's row with the Generator of a child seed of `seed`,
    as `spawn_generators` gives them, so a SeedSequence `seed` is not
    advanced.  When the circuit has an ancilla it is read out in Z and the
    data is conditioned on it reading 1.  Readout flips come with the
    simulated state, so the exact sweep is the expectation of the sampled
    one.  A list or tuple of circuits, with one of as many seeds, gives the
    list of their expectation sets, each as the circuit swept alone with
    its seed; the tables are drawn in input order.
    """
    many = isinstance(circuit, (list, tuple))
    circuits, seeds = (circuit, seed) if many else ([circuit], [seed])
    if not isinstance(seeds, (list, tuple)) or len(seeds) != len(circuits):
        raise ValueError(f"need one seed per circuit ({len(circuits)}), got {seed!r}")
    for one in circuits:
        if not 1 <= len(one.system_qubits) <= MAX_MEASURED_QUBITS:
            raise ValueError(f"need at least 1 and at most {MAX_MEASURED_QUBITS} "
                             f"measured qubits, got {len(one.system_qubits)}")
    noise, sweeps = noise or NoiseModel(), []
    if shots is None:
        for one in circuits:
            rho = run_density_matrix(one, noise)
            if one.ancilla is not None:
                rho = condition_on_ancilla(rho, one.ancilla)
            m = len(one.system_qubits)
            cells, phase, lift, walsh = _pauli_frame(m)[:4]
            # G[x, i] = rho[i, i ^ x], the transpose's entry [i ^ x, i].
            values = phase * (rho.matrix.T.take(lift) @ walsh).take(cells)
            sweeps.append(dict(zip(pauli_strings(m), values.real.tolist())))
        return sweeps if many else sweeps[0]

    # Circuits of one register layout share their settings and one measurement.
    layouts, measured, noiseless = {}, [None] * len(circuits), noise == NoiseModel()
    for row, one in enumerate(circuits):
        layouts.setdefault((one.num_qubits, one.ancilla), []).append(row)
    for rows in layouts.values():
        system, ancilla = list(circuits[rows[0]].system_qubits), circuits[rows[0]].ancilla
        # The ancilla is read out in Z after the system qubits.
        readout, suffix = (system + [ancilla], "Z") if ancilla is not None else (system, "")
        settings = ["".join(s) + suffix for s in itertools.product("XYZ", repeat=len(system))]
        states = [run_statevector(circuits[row]) if noiseless
                  else run_density_matrix(circuits[row], noise) for row in rows]
        for row, probs in zip(rows, measure_in_basis(states, settings, readout)):
            measured[row] = probs, settings
    children = spawn_generators(seeds, [len(settings) for _, settings in measured])
    for one, (probs, settings), rngs in zip(circuits, measured, children):
        table = sample_shots(probs, shots, rngs, settings)
        if one.ancilla is not None:
            table = table.postselect(len(one.system_qubits), 1)
            kept = table.counts.sum(axis=1)
            if not kept.all():
                raise ValueError(f"setting {table.settings[kept.argmin()]!r}: post-selecting "
                                 f"ancilla outcome 1 kept 0 of {shots} shots")
        sweeps.append(expectations_from_tables(table, len(one.system_qubits)))
    return sweeps if many else sweeps[0]


def reduced_fidelities(marginals, targets) -> list:
    """Fidelity of each single-qubit marginal against its pure target, a
    state vector or a density matrix."""
    if len(targets) != len(marginals):
        raise ValueError(f"need one target per qubit ({len(marginals)}), "
                         f"got {len(targets)}")
    return [fidelity(m, t) for m, t in zip(marginals, targets)]
