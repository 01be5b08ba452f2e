"""Encoding/decoding basis experiments for key-distribution channels.

A sender encodes a computational state in some basis, the receiver
decodes in (possibly) another, and the fidelity of the result against
the original state scores how well the two frames match.  Estimation
runs in one of three modes: "simple" (no detection stage) or a
heterodyne stage with a chosen rotation angle; zeta = pi/3 gives the
best matched-vs-mismatched separation, zeta = pi/2 is reported but
excluded from verdicts.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

from .circuits import Circuit, NoiseModel, cu3, seed_sequence, u3, x
from .metrics import fidelity
from .protocols import _prep_gates, format_angle, heterodyne_stage
from .states import StateVector
from .tomography import reconstruct_multi_qubit, tomography_sweep

BALANCED_QKD_ZETA = math.pi / 3
SINGLE_BASES = ("z", "x", "y")
BELL_LABELS = ("b00", "b01", "b10", "b11")

SINGLE_PAIR_ORDER = [
    (e, d) for e in SINGLE_BASES for d in SINGLE_BASES
]
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
    return "simple" if mode == "simple" else format_angle(float(mode))


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
    if initial not in ("0", "1", 0, 1):
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


def _decoded_fidelity(circuit: Circuit, bits: str, shots, seed, noise) -> float:
    """Fidelity of the tomographed system register against |bits>."""
    expectations = tomography_sweep(circuit, shots=shots, seed=seed, noise=noise)
    reconstruction = reconstruct_multi_qubit(expectations, len(bits))
    return fidelity(reconstruction, StateVector.computational(bits))


def qkd_single_run(initial, encode: str, decode: str, mode,
                   shots: int = None, seed: int = 0,
                   noise: NoiseModel = None) -> float:
    """Fidelity of the decoded single qubit against the initial state."""
    return _decoded_fidelity(single_qkd_circuit(initial, encode, decode, mode),
                             "1" if initial in ("1", 1) else "0",
                             shots, seed, noise)


def qkd_bell_run(encode: str, decode: str, mode, shots: int = None,
                 seed: int = 0, noise: NoiseModel = None) -> float:
    """Fidelity of the decoded two-qubit register against |00>."""
    return _decoded_fidelity(bell_qkd_circuit(encode, decode, mode), "00",
                             shots, seed, noise)


@dataclass
class QkdTable:
    """Fidelity per (encode, decode) pair and estimation mode."""

    kind: str                      # "single" | "bell"
    initial: str
    modes: list                    # mode labels, column order
    rows: dict = field(default_factory=dict)  # (enc, dec) -> {label: fidelity}

    @property
    def pair_order(self) -> list:
        return SINGLE_PAIR_ORDER if self.kind == "single" else BELL_PAIR_ORDER

    def value(self, pair, label: str) -> float:
        return self.rows[pair][label]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "initial": self.initial,
            "modes": list(self.modes),
            "rows": {f"{e}-{d}": vals for (e, d), vals in self.rows.items()},
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["encode-decode"] + list(self.modes))
            for pair in self.pair_order:
                row = self.rows[pair]
                writer.writerow([f"{pair[0]}-{pair[1]}"]
                                + [f"{row[m]:.6f}" for m in self.modes])


def qkd_table(initial="0", modes=(BALANCED_QKD_ZETA, math.pi / 2, "simple"),
              shots: int = None, seed: int = 0, noise: NoiseModel = None,
              kind: str = "single") -> QkdTable:
    """Evaluate every encode/decode pair in every requested mode.

    Each cell gets its own child seed, so the table is reproducible and
    cells are independent.
    """
    if kind not in ("single", "bell"):
        raise ValueError(f"kind must be 'single' or 'bell', got {kind!r}")
    run = partial(qkd_single_run, initial) if kind == "single" else qkd_bell_run
    labels = [mode_label(m) for m in modes]
    table = QkdTable(kind, str(initial), labels)
    children = iter(seed_sequence(seed).spawn(len(table.pair_order) * len(modes)))
    for pair in table.pair_order:
        table.rows[pair] = {
            label: run(*pair, mode, shots=shots, seed=next(children), noise=noise)
            for mode, label in zip(modes, labels)}
    return table


def threshold_verdict(table: QkdTable, mode, threshold: float = None) -> dict:
    """Accept/reject each pair by comparing one mode column to a threshold."""
    label = mode_label(mode)
    if label not in table.modes:
        raise ValueError(f"table has no column for mode {label!r}")
    if threshold is None:
        try:
            threshold = DEFAULT_THRESHOLDS[(table.kind, label)]
        except KeyError:
            raise ValueError(f"no default threshold for {table.kind}/{label}; "
                             "pass one explicitly") from None
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return {
        pair: ("accept" if table.rows[pair][label] >= threshold else "reject")
        for pair in table.pair_order
    }
