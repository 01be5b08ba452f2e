"""Gate model, exact simulation backends, measurement, and shot sampling.

Supported gates are X, the three-angle single-qubit rotation U3, and its
controlled version CU3 -- enough to express every circuit the protocols
build.  Systems stay small (at most 6 qubits), so both backends work
with dense matrices.  Each gate's matrix is built once per (gate,
register size) and shared read-only by every later simulation, and
each block of up to 9 basis rotations likewise: one measurement call
gives the distributions of many settings, a row per setting.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .states import (
    DensityMatrix,
    ProbabilityDistribution,
    StateVector,
)

MAX_QUBITS = 6

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# Maps the +1 eigenstate of Y, (|0> + i|1>)/sqrt(2), onto |0>.
_Y_ROT = _H @ np.diag([1, -1j]).astype(complex)

BASIS_ROTATIONS = {"X": _H, "Y": _Y_ROT, "Z": _I2}


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Three-angle single-qubit rotation in the hardware-standard form."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


@dataclass(frozen=True)
class Gate:
    kind: str                 # "x" | "u3" | "cu3"
    qubits: tuple             # (target,) or (control, target)
    angles: tuple = ()        # (theta, phi, lam) for u3/cu3

    def __post_init__(self):
        if self.kind not in ("x", "u3", "cu3"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        where = f"{self.kind} gate on qubits {self.qubits}"
        try:
            object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        except OverflowError:  # an integer past the float range
            raise ValueError(f"{where}: angles must be finite") from None
        expected = 2 if self.kind == "cu3" else 1
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} gate acts on {expected} qubit(s)")
        if self.kind == "cu3" and self.qubits[0] == self.qubits[1]:
            raise ValueError("control and target must differ")
        num_angles = 0 if self.kind == "x" else 3
        if len(self.angles) != num_angles:
            raise ValueError(f"{where}: takes {num_angles} angles, "
                             f"got {len(self.angles)}")
        if any(not np.isfinite(a) for a in self.angles):
            raise ValueError(f"{where}: angles must be finite")

    def matrix_2x2(self) -> np.ndarray:
        """Local action on the target qubit."""
        return _X if self.kind == "x" else u3_matrix(*self.angles)


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def u3(qubit: int, theta: float, phi: float, lam: float) -> Gate:
    return Gate("u3", (qubit,), (theta, phi, lam))


def cu3(control: int, target: int, theta: float, phi: float, lam: float) -> Gate:
    return Gate("cu3", (control, target), (theta, phi, lam))


def _expect(value, types, problem: str):
    """`value` if it is one of `types` (a bool never counts), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{problem}, got {value!r}")
    return value


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple = ()
    ancilla: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
                raise ValueError(f"gate {gate} out of range for {self.num_qubits} qubits")
        if self.ancilla is not None and not 0 <= self.ancilla < self.num_qubits:
            raise ValueError(f"ancilla index {self.ancilla} out of range")

    def appended(self, *gates: Gate) -> "Circuit":
        return replace(self, gates=self.gates + tuple(gates))

    @property
    def system_qubits(self) -> tuple:
        return tuple(q for q in range(self.num_qubits) if q != self.ancilla)

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "gates": [
                {"kind": g.kind, "qubits": list(g.qubits), "angles": list(g.angles)}
                for g in self.gates
            ],
            "ancilla": self.ancilla,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Circuit":
        """Inverse of to_json; a malformed description raises ValueError."""
        _expect(data, dict, "the circuit must be a JSON object")
        gates = []
        for i, g in enumerate(_expect(data.get("gates"), list, "'gates' must be a list")):
            _expect(g, dict, f"gate {i} must be an object")
            qubits = _expect(g.get("qubits"), list, f"gate {i} needs a 'qubits' list")
            angles = _expect(g.get("angles", []), list, f"gate {i} 'angles' must be a list")
            for q in qubits:
                _expect(q, int, f"gate {i} qubits must be integers")
            for a in angles:
                _expect(a, (int, float), f"gate {i} angles must be numbers")
            gates.append(Gate(g.get("kind"), tuple(qubits), tuple(angles)))
        num_qubits = _expect(data.get("num_qubits"), int, "'num_qubits' must be an integer")
        ancilla = data.get("ancilla")
        if ancilla is not None:
            _expect(ancilla, int, "'ancilla' must be an integer or null")
        return cls(num_qubits, gates, ancilla)

    @classmethod
    def load(cls, path) -> "Circuit":
        """Read a to_json file; unreadable JSON raises ValueError too."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as err:
                raise ValueError(f"{path}: invalid JSON ({err})") from None
        return cls.from_json(data)


def _embed(ops: dict, num_qubits: int) -> np.ndarray:
    """Kronecker chain with the given 2x2 operators at their qubit slots.

    Each step is the outer product that np.kron computes, with the same
    multiplications, written out to skip np.kron's per-call overhead.
    """
    full = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        dim = 2 * full.shape[0]
        op = ops.get(q, _I2)
        full = (full[:, None, :, None] * op[None, :, None, :]).reshape(dim, dim)
    return full


def gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n unitary of a gate embedded in the register, built
    once per (gate, register size) and shared read-only."""
    # Gate equality takes -0.0 for 0.0, whose matrix has other bytes, so
    # the key also holds each angle's exact bits.
    return _gate_unitary(gate, tuple(map(float.hex, gate.angles)), num_qubits)


# Bounded because circuit files may hold any angles.
@lru_cache(maxsize=128)
def _gate_unitary(gate: Gate, angle_bits: tuple, num_qubits: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        local = gate.matrix_2x2()
    if not np.isfinite(local).all():
        raise ValueError(f"{gate}: the angles overflow the gate matrix")
    if gate.kind == "cu3":
        control, target = gate.qubits
        full = _embed({control: _P0}, num_qubits) + _embed(
            {control: _P1, target: local}, num_qubits)
    else:
        full = _embed({gate.qubits[-1]: local}, num_qubits)
    full.setflags(write=False)
    return full


def run_statevector(circuit: Circuit) -> StateVector:
    """Exact pure-state simulation from |0...0>."""
    amps = np.zeros(2**circuit.num_qubits, dtype=complex)
    amps[0] = 1.0
    for gate in circuit.gates:
        amps = gate_unitary(gate, circuit.num_qubits) @ amps
    return StateVector(circuit.num_qubits, amps)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarization after each gate plus classical readout flips.

    A depolarizing event replaces the state of the gate's qubit(s) with
    the maximally mixed state: rho -> (1-p) rho + p * mixed.  A readout
    flip inverts each measured bit independently with probability
    `readout_flip_prob`, in whatever basis the qubit is read out.  Both
    backends see the flips, because `run_density_matrix` folds them
    into the state it returns.
    """

    depolarizing_prob_1q: float = 0.0
    depolarizing_prob_2q: float = 0.0
    readout_flip_prob: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_prob_1q", "depolarizing_prob_2q", "readout_flip_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def depolarize(rho_mat: np.ndarray, qubits, prob: float, num_qubits: int) -> np.ndarray:
    """Mix the named qubits toward maximally mixed with probability `prob`.

    The fully depolarized part replaces each qubit q in turn by I/2: with
    rho viewed as (2^q, 2, 2^(n-q-1)) on each side, half the sum of the
    two diagonal slices of q fills both diagonal slices of a zero tensor.
    """
    if prob == 0.0:
        return rho_mat
    mixed = rho_mat
    for q in qubits:
        side = (2**q, 2, 2 ** (num_qubits - q - 1))
        view = mixed.reshape(side + side)
        reduced = (view[:, 0, :, :, 0] + view[:, 1, :, :, 1]) / 2
        mixed = np.zeros_like(view)
        mixed[:, 0, :, :, 0] = mixed[:, 1, :, :, 1] = reduced
    return (1.0 - prob) * rho_mat + prob * mixed.reshape(rho_mat.shape)


def run_density_matrix(circuit: Circuit, noise: NoiseModel = None) -> DensityMatrix:
    """Exact mixed-state simulation; equals the pure run when noise is off.

    Readout flips are folded in last: depolarizing every qubit with
    probability 2p scales each non-identity Pauli factor by 1 - 2p, so
    every Pauli-basis readout of the result flips each bit with
    probability p.  Over all qubits at once the map stays positive for
    every p in [0, 1]: past p = 1/2 it is a depolarizing channel
    composed with the full transpose.
    """
    dim = 2**circuit.num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    noise = noise or NoiseModel()
    for gate in circuit.gates:
        unitary = gate_unitary(gate, circuit.num_qubits)
        rho = unitary @ rho @ unitary.conj().T
        prob = (noise.depolarizing_prob_2q if gate.kind == "cu3"
                else noise.depolarizing_prob_1q)
        rho = depolarize(rho, gate.qubits, prob, circuit.num_qubits)
    for q in range(circuit.num_qubits):
        rho = depolarize(rho, [q], 2 * noise.readout_flip_prob, circuit.num_qubits)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(circuit.num_qubits, rho)


_BLOCK = 9  # settings per stacked product; keeps its temporaries small


# Bounded because callers may pass any qubit order: an entry is at most 9
# rotations of 64 KiB, and 16 hold the 9 blocks of the largest sweep.
@lru_cache(maxsize=16)
def _rotation_stack(settings: tuple, qubits: tuple, num_qubits: int) -> np.ndarray:
    """Read-only pre-rotations of `qubits` into the bases of each setting."""
    stack = np.stack([_embed({q: BASIS_ROTATIONS[letter]
                              for q, letter in zip(qubits, setting)}, num_qubits)
                      for setting in settings])
    stack.setflags(write=False)  # shared by every later call
    return stack


def measure_in_basis(state, setting, qubits=None) -> ProbabilityDistribution:
    """Outcome distribution of measuring `qubits` in the given bases.

    `setting` is one letter from {X, Y, Z} per measured qubit; X and Y
    are realized by a pre-rotation into the computational basis followed
    by a Z readout.  Unmeasured qubits are marginalized.  A sequence of
    settings gives one distribution with a row per setting, computed as
    stacked products over blocks of at most 9 cached rotations; each row
    has the bytes that its setting measured alone would give.
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot measure a {type(state).__name__}")
    num_qubits = state.num_qubits
    qubits = tuple(range(num_qubits)) if qubits is None else tuple(qubits)
    settings = (setting,) if isinstance(setting, str) else tuple(setting)
    if not settings:
        raise ValueError("no basis setting to measure")
    for one in settings:
        if len(one) != len(qubits):
            raise ValueError(f"setting {one!r} does not match {len(qubits)} qubits")
    bad = set().union(*settings) - set("XYZ")
    if bad:
        raise ValueError(f"invalid basis character(s) {sorted(bad)}")

    probs_full = np.empty((len(settings), 2**num_qubits))
    for start in range(0, len(settings), _BLOCK):
        rot = _rotation_stack(settings[start:start + _BLOCK], qubits, num_qubits)
        probs_full[start:start + len(rot)] = (
            np.abs(rot @ state.amplitudes) ** 2 if isinstance(state, StateVector)
            else np.diagonal(rot @ state.matrix @ rot.conj().transpose(0, 2, 1),
                             axis1=1, axis2=2).real)

    tensor = probs_full.reshape((len(settings),) + (2,) * num_qubits)
    unmeasured = tuple(1 + q for q in range(num_qubits) if q not in qubits)
    marginal = tensor.sum(axis=unmeasured) if unmeasured else tensor
    # Report outcomes in the caller's qubit order.
    kept = [q for q in range(num_qubits) if q in qubits]
    marginal = marginal.transpose([0] + [1 + kept.index(q) for q in qubits])
    marginal = np.clip(marginal.reshape(len(settings), -1), 0.0, None)
    marginal /= marginal.sum(axis=1, keepdims=True)
    return ProbabilityDistribution(_outcomes(len(qubits)),
                                   marginal[0] if isinstance(setting, str) else marginal)


@lru_cache(maxsize=None)
def _outcomes(width: int) -> tuple:
    """Bitstring labels of a `width`-bit register in index order."""
    return tuple(map("".join, itertools.product("01", repeat=width)))


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Shot counts for one basis setting.

    `vector` holds the counts of the setting's 2^len(setting) outcomes
    in index order, qubit 0 the most significant bit, and must sum to
    `shots`.  An int64 array is stored without a copy and made
    read-only: the table owns it.
    """

    setting: str
    vector: np.ndarray
    shots: int

    def __post_init__(self):
        width = len(self.setting)
        counts = np.asarray(self.vector, dtype=np.int64)
        if counts.shape != (2**width,):
            raise ValueError(f"setting {self.setting!r} needs {2**width} counts,"
                             f" got shape {counts.shape}")
        counts.setflags(write=False)
        object.__setattr__(self, "vector", counts)
        if int(counts.sum()) != self.shots:
            raise ValueError("counts do not sum to the declared shot total")

    def __eq__(self, other):
        if not isinstance(other, ShotTable):
            return NotImplemented
        return ((self.setting, self.shots) == (other.setting, other.shots)
                and np.array_equal(self.vector, other.vector))

    def postselect(self, bit: int, value: int) -> "ShotTable":
        """Keep shots whose `bit` reads `value` and drop that bit."""
        kept = self.vector.reshape(2**bit, 2, -1)[:, value].reshape(-1)
        return ShotTable(self.setting[:bit] + self.setting[bit + 1:],
                         kept, int(kept.sum()))


def seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` itself if it is a SeedSequence, else a new one built from it."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def sample_shots(probabilities, shots: int, seed, setting: str = None) -> ShotTable:
    """Seeded multinomial draw from outcome probabilities in index order,
    such as one row of a `measure_in_basis` distribution; the draws become
    the table's count vector as they are.  `setting` defaults to Z on
    every bit.  Readout flips are already in the probabilities:
    `run_density_matrix` folds them into the state they are measured from.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = np.asarray(probabilities, dtype=float)
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return ShotTable("Z" * (probs.size.bit_length() - 1) if setting is None else setting,
                     draws, shots)
