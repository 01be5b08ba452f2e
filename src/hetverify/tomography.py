"""Linear-inversion state tomography from basis-resolved shot counts.

An expectation set maps Pauli strings (over I/X/Y/Z) to real expectation
values.  Every string is P = i^#Y X^x Z^z for two m-bit masks x and z,
qubit 0 the most significant bit, so P[i ^ x, i] = i^#Y (-1)^popcount(z & i)
and every other entry is 0.  `_pauli_frame`, which measurement shares,
holds that form once per m: each string's cell (x, z), its phase i^#Y,
the flat index of entry [i ^ x, i], and the +-1 Walsh matrix H, whose
entry (b, a) is (-1)^popcount(b & a).  Reconstruction is the standard
Pauli sum rho = (1/2^m) * sum_P <P> P: put <P> i^#Y at cell (x, z) of a
matrix C, and rho[i ^ x, i] = (C H)[x, i] / 2^m.  The single-qubit Bloch
formula is its m = 1 case.

Counts are assembled into expectations with the same H.  A shot table's
count matrix, a row per setting indexed by outcome with qubit 0 the most
significant bit, is multiplied once by H: that gives every subset parity
sum of every setting, and no outcome label is read.  A Pauli string reads
the column of its non-identity positions, a, from every setting that
matches its non-identity letters, and the shot-weighted mean over those
settings is its estimate.  Which cell each setting estimates from each
column depends only on m and is held in the frame.

Every step takes a list and returns a list, one item per circuit, and
one item comes as a list of one.  The sweep reads out every qubit, the
system qubits in ascending order and then the ancilla, if there is
one, and keeps the shots where the ancilla reads 1.  In input-order
chunks of at most 64 circuits, it makes one `measure_in_basis` call per
register layout for all 3^m settings, and per circuit, in input order,
one `sample_shots` call on its 3^m-row probability array, with the
Generators for that draw alone, from one `spawn_generators` pass.
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

import numpy as np

from .circuits import (
    NoiseModel,
    ShotTable,
    _expect,
    _listed,
    _pauli_expectations,
    _pauli_frame,
    measure_in_basis,
    pauli_strings,
    run_density_matrix,
    run_statevector,
    sample_shots,
    spawn_generators,
)
from .states import DensityMatrix, condition_on_ancilla

MAX_MEASURED_QUBITS = 4
# A sampled sweep holds one chunk of this many circuits' counts at a time.
_CHUNK = 64


def expectations_from_tables(table) -> list:
    """Assemble each circuit's full 4^m expectation set from a ShotTable of
    m-letter settings: the list of c sets of a c x k x 2^m table, or of
    the one set of a k x 2^m table, which counts as one circuit.

    Strings with identity positions are estimated from every compatible
    setting, weighted by shot count; rows with no shots are skipped.
    Each set equals the set of its circuit's rows alone, from one
    product and one pair of sums over every circuit.
    """
    num_qubits = len(table.settings[0])
    if num_qubits > MAX_MEASURED_QUBITS:  # before its frame is built
        raise ValueError(f"need at most {MAX_MEASURED_QUBITS} measured qubits, got {num_qubits}")
    cells, _, _, walsh, hits, index, _ = _pauli_frame(num_qubits)
    counts = table.counts.reshape((-1,) + table.counts.shape[-2:])
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
    targets = (hits[[index[setting] for setting in table.settings]].ravel()
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
    if _expect(num_qubits, (int, np.integer), "num_qubits must be an integer") \
            > MAX_MEASURED_QUBITS:  # before its frame is built
        raise ValueError(f"need at most {MAX_MEASURED_QUBITS} measured qubits, got {num_qubits}")
    _, phase, lift, walsh, _, _, by_cell = _pauli_frame(num_qubits)
    # Read in cell order, each set is its matrix C row by row.
    try:
        values = [one[s] for one in sets for s in by_cell]
    except KeyError as err:
        raise ValueError("incomplete expectation set, "
                         f"missing e.g. {err.args[0]!r}") from None
    coeffs = np.array(values)
    if coeffs.dtype.kind not in "biufc":  # name the first value that is no number
        at = next(i for i, v in enumerate(values) if np.asarray(v).dtype.kind not in "biufc")
        raise ValueError(f"expectation set {at // walsh.size}: {by_cell[at % walsh.size]!r} "
                         f"must be a number, got {values[at]!r}")
    coeffs = coeffs.reshape(len(sets), walsh.size) * phase
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
    not advanced.  When a circuit has an ancilla it is read out in Z after
    the system qubits, and the data is conditioned on it reading 1.
    Readout flips come with the simulated state, so the exact sweep is
    the expectation of the sampled one.  Each input-order chunk of at
    most 64 circuits draws its tables in input order, each with its own
    Generators, then post-selects and assembles each layout's tables as
    one stack.  If post-selection leaves a setting without shots, the
    error names it for the first such circuit in input order.
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
            values = _pauli_expectations(rho.matrix).take(_pauli_frame(m)[0])
            sweeps.append(dict(zip(pauli_strings(m), values.tolist())))
        return sweeps

    children = spawn_generators(seeds, [3 ** len(one.system_qubits) for one in circuits])
    return [expectations for start in range(0, len(circuits), _CHUNK) for expectations
            in _sampled_chunk(circuits[start:start + _CHUNK], shots, children, noise)]


def _sampled_chunk(circuits, shots: int, children, noise: NoiseModel) -> list:
    """The sampled sweep of some circuits, each drawn with `next(children)`."""
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
    # Drawn circuit by circuit, in input order, each with its own Generators,
    # which are dropped after its draw.
    drawn = [sample_shots(probs, shots, next(children), settings)
             for probs, settings in measured]
    # Then each layout's tables as one stack, split only where a stack's
    # total would reach 2^63; a lone table needs no stack.
    stacks = []
    for rows in layouts.values():
        size = (2**63 - 1) // drawn[rows[0]].shots
        stacks += [rows[start:start + size] for start in range(0, len(rows), size)]
    sweeps, empty = [None] * len(circuits), []
    for rows in stacks:
        table = drawn[rows[0]] if len(rows) == 1 else ShotTable(
            drawn[rows[0]].settings, np.stack([drawn[row].counts for row in rows]))
        if circuits[rows[0]].ancilla is not None:  # the last readout bit
            table = table.postselect(len(table.settings[0]) - 1)
            kept = table.counts.sum(axis=-1).reshape(len(rows), -1)
            if not kept.all():
                first = kept.all(axis=1).argmin()
                empty.append((rows[first], table.settings[kept[first].argmin()]))
                continue
        for row, expectations in zip(rows, expectations_from_tables(table)):
            sweeps[row] = expectations
    if empty:  # name the first circuit, in input order, left without shots
        setting = min(empty)[1]
        raise ValueError(f"setting {setting!r}: post-selecting "
                         f"ancilla outcome 1 kept 0 of {shots} shots")
    return sweeps
