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

Every step takes a list and returns a list, one item per circuit, and
one item comes as a list of one.  The sweep always measures the
circuits' system qubits and post-selects on the ancilla, if there is one,
reading 1.  It makes one `measure_in_basis` call per register layout, for
all 3^m settings of all its circuits, and one `spawn_generators` pass
that seeds a Generator per row of every circuit.  Each circuit in input
order makes one `sample_shots` call on its 3^m-row probability array.
Then each layout's c tables are stacked into one c x 3^m x 2^w table,
post-selected once and assembled once: one product with H for every
row of every circuit, and one bincount whose cells are offset by
circuit.  Integer counts times +-1 are exact and bincount adds in row
order, so each circuit's set has the bytes of its table assembled
alone.  Reconstruction likewise places every set with one product.
The ancilla is the last readout bit, so post-selection keeps every
second column of the count matrix.  The exact sweep (shots=None) needs
no counts.  It conditions each circuit's density matrix, readout flips
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
    ShotTable,
    _listed,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    spawn_generators,
)
from .states import DensityMatrix, condition_on_ancilla

MAX_MEASURED_QUBITS = 4


@lru_cache(maxsize=None)
def pauli_strings(num_qubits: int) -> tuple:
    """All 4^m strings over {I, X, Y, Z}, 'I...I' first."""
    return tuple(map("".join, itertools.product("IXYZ", repeat=num_qubits)))


@lru_cache(maxsize=None)
def _pauli_frame(num_qubits: int):
    """Read-only x/z tables shared by every user over `num_qubits` qubits.

    Returns (cells, phase, lift, walsh, hits, index, by_cell): each
    string's cell x * 2^m + z, in pauli_strings order; phase[c], the
    phase i^#Y of the string at cell c; lift[x, i], the flat index of
    entry [i ^ x, i] of a 2^m x 2^m matrix; walsh[b, a] =
    (-1)^popcount(b & a); for each subset a of a setting's letters,
    hits[index[setting], a], the cell of the string that keeps those
    letters and sets the rest to I; and the strings in cell order.
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
    cells = x * dim + z
    order = np.empty_like(cells)  # the string at each cell
    order[cells] = np.arange(cells.size)
    arrays = (cells,
              np.array([1, 1j, -1, -1j])[(codes == 2).sum(axis=1) % 4][order],
              (outcomes[:, None] ^ outcomes) * dim + outcomes,
              1.0 - 2 * (bits @ bits.T & 1),
              (x[settings, None] & outcomes) * dim + (z[settings, None] & outcomes))
    for array in arrays:
        array.setflags(write=False)
    strings = pauli_strings(num_qubits)
    return (*arrays, MappingProxyType(index), tuple(strings[i] for i in order))


def expectations_from_tables(table, num_qubits: int) -> list:
    """Assemble each circuit's full 4^m expectation set from a ShotTable:
    the list of c sets of a c x k x 2^w table, or of the one set of a
    k x 2^w table, which counts as one circuit.

    Strings with identity positions are estimated from every compatible
    setting, weighted by shot count; rows with no shots are skipped,
    and a later row for a setting replaces an earlier one.  Each set
    equals the set of its circuit's rows alone, from one product and
    one pair of sums over every circuit.
    """
    cells, _, _, walsh, hits, index, _ = _pauli_frame(num_qubits)
    if len(table.settings[0]) != num_qubits:
        raise ValueError(f"setting {table.settings[0]!r} is not {num_qubits} "
                         "letters from X, Y, Z")
    counts = table.counts.reshape((-1,) + table.counts.shape[-2:])
    # Each setting's last row, in the order the settings first appear.
    last = {setting: row for row, setting in enumerate(table.settings)}
    if len(last) < len(table.settings):
        counts = counts[:, list(last.values())]
    shots = counts.sum(axis=-1, keepdims=True).astype(float)
    # Each row's estimates times its shots, from exact integer products.
    # bincount adds them row by row, so every partial sum rounds exactly
    # as in a per-string loop over the rows' parity averages.  Column 0
    # sums each row to its shots, so the identity reads exactly 1.  An
    # empty row would give 0 / 0; divided by 1 it adds zeros instead.
    scale = shots if shots.all() else np.where(shots > 0, shots, 1.0)
    weighted = (counts @ walsh) / scale * shots
    size, num_sets = walsh.size, len(counts)
    # Circuit j's cells are offset by j tables.
    targets = (hits[[index[setting] for setting in last]].ravel()
               + np.arange(0, size * num_sets, size)[:, None]).ravel()
    num = np.bincount(targets, weighted.ravel(), size * num_sets).reshape(num_sets, size)
    den = np.bincount(targets, shots.repeat(len(walsh), axis=-1).ravel(),
                      size * num_sets).reshape(num_sets, size)
    strings = pauli_strings(num_qubits)
    if not den.all():
        # The identity lacks shots only if every string does; then name the next.
        first = den.all(axis=1).argmin()
        missing = den[first, cells[1:]].argmin() + 1 if len(cells) > 1 else 0
        raise ValueError(f"circuit {first}: no shot table can estimate {strings[missing]!r}")
    return [dict(zip(strings, values)) for values in (num / den)[:, cells].tolist()]


def reconstruct_single_qubit(expectations: dict) -> DensityMatrix:
    """Bloch-vector reconstruction of one state from <X>, <Y>, <Z>."""
    return reconstruct_multi_qubit([{**expectations, "I": 1.0}], 1)[0]


def reconstruct_multi_qubit(sets, num_qubits: int) -> list:
    """The Pauli-sum state of each expectation set in a list, from one
    batched product, each as its set gives it alone; a state may be
    unphysical for noisy data."""
    sets = _listed(sets, "expectation sets")
    _, phase, lift, walsh, _, _, by_cell = _pauli_frame(num_qubits)
    # Read in cell order, each set is its matrix C row by row.
    try:
        values = [one[s] for one in sets for s in by_cell]
    except KeyError as err:
        raise ValueError("incomplete expectation set, "
                         f"missing e.g. {err.args[0]!r}") from None
    coeffs = np.array(values).reshape(len(sets), walsh.size) * phase
    # One product over every set's rows, each row's bytes as for its set
    # alone.  lift pairs [x, i] with [i ^ x, i] both ways, so one gather
    # places every row.  Row x's columns i and i ^ x sum the same terms, the
    # second conjugated, so real expectations give a Hermitian matrix.
    mats = np.dot(coeffs.reshape(-1, len(walsh)), walsh).reshape(coeffs.shape)
    mats = mats.take(lift, axis=1) / len(walsh)
    return [DensityMatrix(num_qubits, mat) for mat in mats]


def tomography_sweep(circuits, shots: int = None, seeds=None,
                     noise: NoiseModel = None) -> list:
    """Run all 3^k basis settings over each circuit's system qubits and
    return the list of their full expectation sets, each as the circuit
    swept alone.

    shots=None uses exact probabilities and reads no seeds.  Otherwise
    `seeds` lists one seed per circuit, and each circuit's stacked shot
    table draws its settings' rows with the Generators of child seeds of
    its seed, as `spawn_generators` gives them, so a SeedSequence seed is
    not advanced.  When a circuit has an ancilla it is read out in Z and
    the data is conditioned on it reading 1.  Readout flips come with the
    simulated state, so the exact sweep is the expectation of the sampled
    one.  The tables are drawn in input order, then each register
    layout's tables are post-selected and assembled as one stack.  If
    post-selection leaves a setting without shots, the error names that
    setting of the first such circuit in input order.
    """
    circuits = _listed(circuits, "circuits")
    if shots is not None and (not isinstance(seeds, (list, tuple))
                              or len(seeds) != len(circuits)):
        raise ValueError(f"need one seed per circuit ({len(circuits)}), got {seeds!r}")
    for one in circuits:
        if not 1 <= len(one.system_qubits) <= MAX_MEASURED_QUBITS:
            raise ValueError(f"need at least 1 and at most {MAX_MEASURED_QUBITS} "
                             f"measured qubits, got {len(one.system_qubits)}")
    noise = noise or NoiseModel()
    if shots is None:
        sweeps = []
        for one in circuits:
            rho = run_density_matrix(one, noise)
            if one.ancilla is not None:
                rho = condition_on_ancilla(rho, one.ancilla)
            m = len(one.system_qubits)
            cells, phase, lift, walsh = _pauli_frame(m)[:4]
            # G[x, i] = rho[i, i ^ x], the transpose's entry [i ^ x, i].
            values = (phase * (rho.matrix.T.take(lift) @ walsh).ravel()).take(cells)
            sweeps.append(dict(zip(pauli_strings(m), values.real.tolist())))
        return sweeps

    # Circuits of one register layout share their settings, one measurement,
    # one post-selection and one assembly.
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
    # Drawn circuit by circuit, in input order.
    drawn = [sample_shots(probs, shots, rngs, settings)
             for (probs, settings), rngs in zip(measured, children)]
    # Then each layout's tables as one stack, split only where a stack's
    # total would reach 2^63; a lone table needs no stack.
    stacks = []
    for rows in layouts.values():
        size = (2**63 - 1) // drawn[rows[0]].shots
        stacks += [rows[start:start + size] for start in range(0, len(rows), size)]
    sweeps, empty = [None] * len(circuits), []
    for rows in stacks:
        table = drawn[rows[0]] if len(rows) == 1 else ShotTable(
            drawn[rows[0]].settings, np.stack([drawn[row].counts for row in rows]),
            sum(drawn[row].shots for row in rows))
        num_system = len(circuits[rows[0]].system_qubits)
        if circuits[rows[0]].ancilla is not None:
            table = table.postselect(num_system, 1)
            kept = table.counts.sum(axis=-1).reshape(len(rows), -1)
            if not kept.all():
                first = kept.all(axis=1).argmin()
                empty.append((rows[first], table.settings[kept[first].argmin()]))
                continue
        for row, expectations in zip(rows, expectations_from_tables(table, num_system)):
            sweeps[row] = expectations
    if empty:  # name the first circuit, in input order, left without shots
        setting = min(empty)[1]
        raise ValueError(f"setting {setting!r}: post-selecting "
                         f"ancilla outcome 1 kept 0 of {shots} shots")
    return sweeps
