"""Encoding/decoding basis experiments for key-distribution channels.

A sender encodes a computational state in some basis, the receiver
decodes in (possibly) another, and the fidelity of the result against
the original state scores how well the two frames match.  Estimation
runs in one of three modes: "simple" (no detection stage) or a
heterodyne stage with a chosen rotation angle; zeta = pi/3 gives the
best matched-vs-mismatched separation, zeta = pi/2 is reported but
excluded from verdicts.  A table and its verdicts are plain dicts keyed
by "e-d" pair names, as a report stores them.
"""
from __future__ import annotations

import math
from functools import partial

from .circuits import Circuit, NoiseModel, cu3, seed_sequence, u3, x
from .metrics import fidelity
from .protocols import _prep_gates, format_angle, heterodyne_stage
from .states import StateVector
from .tomography import reconstruct_multi_qubit, tomography_sweep

BALANCED_QKD_ZETA = math.pi / 3
SINGLE_BASES = ("z", "x", "y")
BELL_LABELS = ("b00", "b01", "b10", "b11")

SINGLE_PAIR_ORDER = [(e, d) for e in SINGLE_BASES for d in SINGLE_BASES]
BELL_PAIR_ORDER = [("b00", d) for d in BELL_LABELS]

# Encoders as U3 angle triples: z is the identity frame, x the Hadamard,
# y the frame mapping |0> to (|0> + i|1>)/sqrt(2).
_ENCODE_ANGLES = {
    "z": None,
    "x": (math.pi / 2, 0.0, math.pi),
    "y": (math.pi / 2, math.pi / 2, math.pi),
}

DEFAULT_THRESHOLDS = {
    ("single", "pi/3"): 0.8,
    ("single", "simple"): 0.9,
    ("bell", "pi/3"): 0.7,
    ("bell", "simple"): 0.25,
}


def _frame_gates(basis: str, qubit: int, inverse: bool = False):
    """The basis's encoder on `qubit`, or with `inverse` the decoder:
    U3(theta, phi, lam)^-1 = U3(-theta, -lam, -phi)."""
    if basis not in SINGLE_BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if _ENCODE_ANGLES[basis] is None:
        return []
    theta, phi, lam = _ENCODE_ANGLES[basis]
    return [u3(qubit, -theta, -lam, -phi) if inverse else u3(qubit, theta, phi, lam)]


def mode_label(mode) -> str:
    """Canonical column label: 'simple' or the zeta angle, format_angle style."""
    if mode == "simple":
        return "simple"
    try:
        return format_angle(float(mode))
    except (TypeError, ValueError):
        raise ValueError(f"a mode is 'simple' or a zeta angle, got {mode!r}") from None


def _qkd_circuit(num_system: int, gates, mode) -> Circuit:
    """System qubits 0..num_system-1 running `gates`, then, in heterodyne
    modes, the detection stage on an ancilla after them."""
    if mode == "simple":
        return Circuit(num_system, gates)
    circuit = Circuit(num_system + 1, gates, ancilla=num_system)
    return heterodyne_stage(circuit, float(mode))


def single_qkd_circuit(initial, encode: str, decode: str, mode) -> Circuit:
    """System qubit 0, prepared in |initial>, '0' or '1'; ancilla 1
    present only in heterodyne modes."""
    if str(initial) not in ("0", "1"):
        raise ValueError(f"initial must be '0' or '1', got {initial!r}")
    return _qkd_circuit(1, _prep_gates(initial, 0) + _frame_gates(encode, 0)
                        + _frame_gates(decode, 0, inverse=True), mode)


_HADAMARD = (math.pi / 2, 0.0, math.pi)
_PAULI_Z = (0.0, 0.0, math.pi)
_CX = (math.pi, 0.0, math.pi)


def _bell_encode_gates(label: str):
    """Entangler for b00 followed by the Pauli frame of the label."""
    if label not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {label!r}")
    a, b = int(label[1]), int(label[2])
    gates = [u3(0, *_HADAMARD), cu3(0, 1, *_CX)]
    if a:
        gates.append(u3(0, *_PAULI_Z))
    if b:
        gates.append(x(1))
    return gates


def bell_qkd_circuit(encode: str, decode: str, mode) -> Circuit:
    """Two system qubits starting in |00>; ancilla 2 in heterodyne modes.

    Every encoder gate is its own inverse, so the decoder is the
    decode label's encoder run backwards."""
    return _qkd_circuit(2, _bell_encode_gates(encode)
                        + _bell_encode_gates(decode)[::-1], mode)


def _decoded_fidelities(circuits, bits: str, shots, seeds, noise) -> list:
    """Fidelity of each circuit's tomographed system register against |bits>."""
    sweeps = tomography_sweep(circuits, shots=shots, seeds=seeds, noise=noise)
    target = StateVector.computational(bits)
    return [fidelity(rho, target) for rho in reconstruct_multi_qubit(sweeps, len(bits))]


_TABLE_KINDS = {"0": "single", "1": "single", "00": "bell"}


def qkd_table(initial="0", modes=(BALANCED_QKD_ZETA, math.pi / 2, "simple"),
              shots: int = None, seed: int = 0, noise: NoiseModel = None) -> dict:
    """Evaluate every encode/decode pair in every requested mode, as the dict
    {"kind", "initial", "modes", "rows"}: `rows` maps each "e-d" pair, in
    pair order, to {mode label: fidelity}.  The labels must not repeat.

    The initial state picks the table: '0' or '1' (or the int 0 or 1) the
    single-qubit table from that state, '00' the Bell table.  Each cell
    gets its own child seed, so the table is reproducible and cells are
    independent; a SeedSequence `seed` is not advanced.  One sweep draws
    every cell's tables, in pair then mode order.
    """
    kind = _TABLE_KINDS.get(str(initial))
    if kind is None:
        raise ValueError(f"initial must be '0', '1' or '00', got {initial!r}")
    initial = str(initial)
    labels = [mode_label(m) for m in modes]
    if not labels:
        raise ValueError("a table needs at least one mode")
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"modes repeat the column label {label!r}")
    build = partial(single_qkd_circuit, initial) if kind == "single" else bell_qkd_circuit
    pairs = SINGLE_PAIR_ORDER if kind == "single" else BELL_PAIR_ORDER
    circuits = [build(e, d, mode) for e, d in pairs for mode in modes]
    cells = iter(_decoded_fidelities(circuits, initial, shots,
                                     seed_sequence(seed).spawn(len(circuits)), noise))
    rows = {f"{e}-{d}": {label: next(cells) for label in labels} for e, d in pairs}
    return {"kind": kind, "initial": initial, "modes": labels, "rows": rows}


def threshold_verdict(table: dict, mode, threshold: float = None) -> dict:
    """Accept/reject each "e-d" pair by comparing one mode column to a threshold."""
    label = mode_label(mode)
    if label not in table["modes"]:
        raise ValueError(f"table has no column for mode {label!r}")
    if threshold is None:
        try:
            threshold = DEFAULT_THRESHOLDS[(table["kind"], label)]
        except KeyError:
            raise ValueError(f"no default threshold for {table['kind']}/{label}; "
                             "pass one explicitly") from None
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return {pair: ("accept" if row[label] >= threshold else "reject")
            for pair, row in table["rows"].items()}
