"""Gate model, exact simulation backends, measurement, and shot sampling.

Supported gates are X, the three-angle single-qubit rotation U3, and its
controlled version CU3 -- enough to express every circuit the protocols
build.  Systems stay small (at most 6 qubits), so both backends work
with dense matrices.  Each gate's matrix is built once per (gate,
register size) and shared read-only by every later simulation, and
each block of up to 9 basis rotations likewise, and each x/z Pauli
frame.  A gate whose matrix is a 0/1 permutation moves a density
matrix's entries with a gather in place of the dense product, and
depolarizing writes the mixed part only onto the entries that are
diagonal in the gate's qubits; both give the bytes of the dense
computation.  Measurement takes a list of states and a list of
settings, one of each as a list of one, reads out every qubit and gives
one array of outcome probabilities, as a ShotTable counts; one rule
checks both.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .states import PROB_ATOL, DensityMatrix, StateVector

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
        try:
            object.__setattr__(self, "angles", tuple(map(float, self.angles)))
        except OverflowError:  # an integer past the float range
            raise self._invalid("angles must be finite") from None
        expected = 2 if self.kind == "cu3" else 1
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} gate acts on {expected} qubit(s)")
        if self.kind == "cu3" and self.qubits[0] == self.qubits[1]:
            raise ValueError("control and target must differ")
        num_angles = 0 if self.kind == "x" else 3
        if len(self.angles) != num_angles:
            raise self._invalid(f"takes {num_angles} angles, got {len(self.angles)}")
        if not all(map(math.isfinite, self.angles)):
            raise self._invalid("angles must be finite")

    def _invalid(self, problem: str) -> ValueError:
        return ValueError(f"{self.kind} gate on qubits {self.qubits}: {problem}")

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


def _listed(value, items: str) -> tuple:
    """`value` as a tuple if it is a list or tuple, else ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"need a list of {items}, got a {type(value).__name__}")
    return tuple(value)


def _settings(settings, width: int = None) -> tuple:
    """A non-empty list or tuple of strings of `width` letters (by default
    the first's) from X, Y and Z, as a tuple; else ValueError naming one."""
    settings = _listed(settings, "settings")  # a string would pass as letters
    if not settings:
        raise ValueError("need at least one setting")
    try:  # whole-tuple checks, as join takes only strings; a failure names one
        letters = "".join(settings)
    except TypeError:
        bad = next(s for s in settings if not isinstance(s, str))
        raise ValueError(f"setting {bad!r} is not a string of letters "
                         "from X, Y, Z") from None
    width = len(settings[0]) if width is None else width
    if set(map(len, settings)) != {width} or letters.strip("XYZ"):
        bad = next(s for s in settings if len(s) != width or s.strip("XYZ"))
        raise ValueError(f"setting {bad!r} is not {width} letters from X, Y, Z")
    return settings


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
    return _gate_entry(gate, num_qubits)[0]


def _gate_entry(gate: Gate, num_qubits: int) -> tuple:
    """The gate's cached (unitary, perm): perm[i] is the column of row
    i's 1 if every entry of the unitary is exactly 0 or 1, else None."""
    # Gate equality takes -0.0 for 0.0, whose matrix has other bytes, so
    # the key also holds each angle's exact bits.
    return _gate_unitary(gate, tuple(map(float.hex, gate.angles)), num_qubits)


# Bounded because circuit files may hold any angles.
@lru_cache(maxsize=128)
def _gate_unitary(gate: Gate, angle_bits: tuple, num_qubits: int) -> tuple:
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
    perm = None
    # A unitary of 0s and 1s has one 1 in each row and column.
    if ((full == 0) | (full == 1)).all():
        perm = full.real.argmax(axis=1)
        perm.setflags(write=False)
    full.setflags(write=False)
    return full, perm


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
            # A bool is no rate, and a complex or a string does not order.
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
            object.__setattr__(self, name, float(p))


# Bounded because depolarize takes any qubits; 128 entries hold all 91
# one- and two-qubit sets of every register up to MAX_QUBITS qubits.
@lru_cache(maxsize=128)
def _diagonal_layout(qubits: tuple, num_qubits: int, itemsize: int) -> tuple:
    """(shape, strides, picks) of a view of the entries of a C-ordered
    2^n x 2^n matrix whose row and column agree on each of `qubits`.

    The row splits at those qubits into blocks, and each qubit's axis
    steps its row and column bit at once; the column keeps the blocks
    between them.  picks[i] slices the view, or a reduction of it that
    keeps its axes, at qubits[i] = 0 and at qubits[i] = 1.
    """
    row, col = itemsize << num_qubits, itemsize
    bounds = [-1, *sorted(qubits), num_qubits]
    shape, strides, col_shape, col_strides, axes = [], [], [], [], {}
    for low, high in zip(bounds, bounds[1:]):
        shift = num_qubits - high  # the block's lowest qubit is high - 1
        shape.append(1 << (high - low - 1))
        strides.append(row << shift)
        col_shape.append(shape[-1])
        col_strides.append(col << shift)
        if high < num_qubits:
            axes[high] = len(shape)
            shape.append(2)
            strides.append((row + col) << shift >> 1)
    picks = tuple(tuple((slice(None),) * axes[q] + (slice(bit, bit + 1),) for bit in (0, 1))
                  for q in qubits)
    return tuple(shape + col_shape), tuple(strides + col_strides), picks


def depolarize(rho_mat: np.ndarray, qubits, prob: float, num_qubits: int) -> np.ndarray:
    """Mix the named qubits toward maximally mixed with probability `prob`.

    The fully depolarized part traces each qubit q out in turn and puts
    I/2 back: half the sum of the entries diagonal in q with q at 0 and
    at 1, over what the qubits before q left.  It is nonzero only on
    the entries diagonal in every named qubit, so `prob` times it is
    written there on a zero matrix, which then gains (1 - prob) * rho.
    Each entry is thus the sum of the same two products as with full
    matrices, and an entry off those diagonals gains +0.0, which turns
    a -0.0 of (1 - prob) * rho into 0.0.
    """
    if prob == 0.0:
        return rho_mat
    rho_mat = np.ascontiguousarray(rho_mat)  # the layout's strides are C order's
    shape, strides, picks = _diagonal_layout(tuple(qubits), num_qubits, rho_mat.itemsize)
    reduced = np.ndarray(shape, rho_mat.dtype, rho_mat, 0, strides)
    for first, second in picks:
        reduced = (reduced[first] + reduced[second]) / 2
    mixed = np.zeros(rho_mat.shape, rho_mat.dtype)
    np.ndarray(shape, mixed.dtype, mixed, 0, strides)[...] = prob * reduced
    mixed += (1.0 - prob) * rho_mat
    return mixed


def run_density_matrix(circuit: Circuit, noise: NoiseModel = None) -> DensityMatrix:
    """Exact mixed-state simulation; equals the pure run when noise is off.

    A gate whose unitary U is a 0/1 permutation gathers rho's rows and
    columns: each entry of U rho U^H is one entry of rho times 1 plus
    exact zeros, so the gather gives the dense product's bytes.  Every
    other gate takes the dense product.

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
        unitary, perm = _gate_entry(gate, circuit.num_qubits)
        if perm is None:
            rho = unitary @ rho @ unitary.conj().T
        else:
            rho = rho.take(perm, axis=0).take(perm, axis=1)
        prob = (noise.depolarizing_prob_2q if gate.kind == "cu3"
                else noise.depolarizing_prob_1q)
        rho = depolarize(rho, gate.qubits, prob, circuit.num_qubits)
    for q in range(circuit.num_qubits):
        rho = depolarize(rho, [q], 2 * noise.readout_flip_prob, circuit.num_qubits)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(circuit.num_qubits, rho)


_BLOCK = 9  # settings per stacked product of state vectors


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


@lru_cache(maxsize=None)
def pauli_strings(num_qubits: int) -> tuple:
    """All 4^m strings over {I, X, Y, Z}, 'I...I' first, for 0 <= m <= MAX_QUBITS."""
    if not 0 <= num_qubits <= MAX_QUBITS:  # a frame grows as 16^m
        raise ValueError(f"a Pauli frame needs 0 to {MAX_QUBITS} qubits, got {num_qubits}")
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
    strings = pauli_strings(num_qubits)  # checks num_qubits
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
    return (*arrays, MappingProxyType(index), tuple(strings[i] for i in order))


def _pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """Re Tr(P rho) of every Pauli string P, in cell order: i^#Y (G H)[x, z]
    with G[x, i] = rho[i, i ^ x], the transpose's entry [i ^ x, i]."""
    _, phase, lift, walsh = _pauli_frame(len(rho).bit_length() - 1)[:4]
    return (phase * (rho.T.take(lift) @ walsh).ravel()).real


def measure_in_basis(states, settings, qubits=None) -> np.ndarray:
    """Outcome probabilities of reading out each of c states (a list of one
    kind and size) in each of k settings (a list of strings), as a
    c x k x 2^n float array indexed by outcome as a ShotTable's count
    rows.  `qubits` orders all n qubits, each once, by default ascending:
    setting letter j measures qubits[j], the first the most significant bit.

    A state vector is rotated into each setting's basis by stacked
    products over blocks of at most 9 cached rotations.  A density matrix
    is read from the Pauli frame: one gather and one product with the
    Walsh matrix H give its 4^n expectations, and a setting's outcome
    probabilities are H v / 2^n, v those of the 2^n strings that keep a
    subset of its letters.  Each row has the bytes of its state and
    setting measured alone.  Density rows match diag(R rho R^+) to 1e-16,
    not bytewise, so this version moved seeded counts drawn from exact 0
    or 1/2 probabilities.  A row sum that is not finite and positive, then
    a probability below -PROB_ATOL, raises ValueError; smaller negatives
    are set to zero, and each row is scaled to sum to 1.
    """
    states = _listed(states, "states")
    for one in states:
        if not isinstance(one, (StateVector, DensityMatrix)):
            raise TypeError(f"cannot measure a {type(one).__name__}")
    layouts = {(type(one), one.num_qubits) for one in states}
    if len(layouts) != 1:
        raise ValueError("need at least one state, all of one kind and size")
    (kind, num_qubits), = layouts
    qubits = tuple(range(num_qubits)) if qubits is None else tuple(qubits)
    if any(isinstance(q, bool) or not isinstance(q, (int, np.integer)) for q in qubits) \
            or sorted(qubits) != list(range(num_qubits)):
        raise ValueError(f"cannot measure qubits {list(qubits)}: need every index "
                         f"in [0, {num_qubits}) once, as an integer")
    settings = _settings(settings, num_qubits)

    dim = 2**num_qubits
    probs = np.empty((len(states), len(settings), dim))
    if kind is DensityMatrix:
        walsh, hits = _pauli_frame(num_qubits)[3:5]
        # A setting's row of hits: its letters, X, Y, Z as 0-2, in base 3 by qubit.
        digits = np.frombuffer("".join(settings).encode(), np.uint8).reshape(len(settings), -1)
        cells = hits[(digits - ord("X")) @ 3 ** (num_qubits - 1 - np.array(qubits))]
        # One state at a time, as the exact sweep reads it, so many copies need
        # no stacked copy; an overflowing matrix gives NaN, rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            for row, one in enumerate(states):
                expect = _pauli_expectations(one.matrix)
                probs[row] = (expect[cells][:, None] @ (walsh / dim))[:, 0]
    else:
        for start in range(0, len(settings), _BLOCK):
            rot = _rotation_stack(settings[start:start + _BLOCK], qubits, num_qubits)
            # A matrix-vector product per state and setting, as for one state alone.
            amps = np.array([one.amplitudes for one in states])[:, None, :, None]
            probs[:, start:start + len(rot)] = np.abs(rot @ amps)[..., 0] ** 2

    # Report outcomes in the caller's qubit order.
    probs = probs.reshape((-1,) + (2,) * num_qubits)
    probs = probs.transpose([0, *(1 + q for q in qubits)]).reshape(len(probs), -1)
    # A density matrix may be unphysical; NaN fails each check.
    with np.errstate(over="ignore"):
        low, sums = probs.min(), probs.sum(axis=1)
    if not (sums.min() > 0 and sums.max() < np.inf):
        raise ValueError("the state's outcome probabilities need a finite, positive sum")
    if not low >= -PROB_ATOL:
        raise ValueError(f"the state gives outcome probability {low}, below -{PROB_ATOL}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs.reshape(len(states), len(settings), -1)


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Shot counts for k distinct basis settings of one width w.

    `settings` lists the k strings over X, Y and Z.  Row i of the k x 2^w
    integer `counts` matrix counts the outcomes of settings[i] in index
    order, qubit 0 the most significant bit.  A c x k x 2^w `counts`
    stacks the tables of c circuits measured in the same k settings,
    circuit j's matrix at counts[j], as `measure_in_basis` stacks a list
    of states.  `shots` is derived, the exact total of every count; it
    must be below 2^63, so no int64 sum of counts wraps.  An int64 array
    is stored without a copy and made read-only."""

    settings: tuple
    counts: np.ndarray
    shots: int = field(init=False)

    def __post_init__(self):
        settings = _settings(self.settings)
        if len(set(settings)) < len(settings):
            bad = next(s for i, s in enumerate(settings) if s in settings[:i])
            raise ValueError(f"setting {bad!r} has more than one row")
        counts, width = np.asarray(self.counts), len(settings[0])
        if counts.ndim not in (2, 3) or counts.shape[-2:] != (len(settings), 2**width) \
                or not counts.size:
            raise ValueError(f"setting {settings[0]!r} needs {2**width} counts per "
                             f"row, {len(settings)} rows, got shape {counts.shape}")
        problem = "counts must be non-negative integers with a total below 2^63"
        if counts.dtype.kind not in "iu":  # a float, bool or string array
            raise ValueError(f"{problem}, got {counts.dtype} counts")
        # A uint64 count of 2^63 or more wraps to a negative int64 one.  As
        # uint64 a negative count is at least 2^63, so if no count exceeds its
        # share of 2^63 - 1, none is negative and the int64 sum is exact.
        counts = counts.astype(np.int64, copy=False)
        small = counts.view(np.uint64).max() <= (2**63 - 1) // counts.size
        total = int(counts.sum()) if small else sum(counts.ravel().tolist())
        if (not small and counts.min() < 0) or total >= 2**63:
            raise ValueError(problem)
        counts.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", total)

    def __eq__(self, other):
        if not isinstance(other, ShotTable):
            return NotImplemented
        return self.settings == other.settings and np.array_equal(self.counts, other.counts)

    def postselect(self, bit: int) -> "ShotTable":
        """Keep every row's shots whose `bit` reads 1 and drop that bit.  A
        stacked table post-selects every circuit's rows at once."""
        width = len(self.settings[0])
        if isinstance(bit, bool) or not isinstance(bit, (int, np.integer)) \
                or bit not in range(width):
            raise ValueError(f"cannot post-select bit {bit!r}: need a bit in [0, {width})")
        kept = self.counts.reshape(-1, 2**bit, 2, 2 ** (width - bit - 1))[:, :, 1]
        return ShotTable(tuple(s[:bit] + s[bit + 1:] for s in self.settings),
                         kept.reshape(self.counts.shape[:-1] + (-1,)))


def seed_sequence(seed) -> np.random.SeedSequence:
    """A new SeedSequence built from `seed`.  A SeedSequence `seed` is copied,
    so spawning from the copy leaves `seed` where it was."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(**seed.state)
    return np.random.SeedSequence(seed)


# SeedSequence's hashing constants, as numpy's bit_generator defines them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The hash constant after `start`, `start` + 1, ..., `start` + `count`
    hashmix calls, each of which multiplies it by `mult`."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                     for k in range(start, start + count + 1)], dtype=np.uint32)


# SeedSequence's hashmix and mix, on uint32 arrays, whose products wrap
# as numpy's C code does.  hashmix advances the hash constant from
# `const` to `next_const`.
def _hashmix(value, const, next_const):
    value = (value ^ const) * next_const
    return value ^ value >> 16


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


# generate_state(4, np.uint64) hashes 8 32-bit words, the pool's in turn.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)


def _entropy_words(value) -> list:
    """SeedSequence's 32-bit words of an entropy or spawn-key value: an
    int least significant word first (0 is one word), a sequence the
    words of its items in order."""
    try:
        n = operator.index(value)
    except TypeError:
        return [word for item in value for word in _entropy_words(item)]
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=None)
def _state_words_type() -> type:
    """An ISeedSequence that hands PCG64 the state words computed for it.

    Defined on first use, so importing the package does not import
    numpy.random (about 10 ms).  Exact tomography never imports it; exact
    protocol and QKD runs do, through `seed_sequence`.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def spawn_generators(seeds, counts):
    """For each seed and its count in turn, the Generators
    `[default_rng(c) for c in seed_sequence(seed).spawn(count)]`, in the
    same PCG64 states, leaving a SeedSequence seed unadvanced.  A seed is
    anything SeedSequence takes (list entropy must come as a SeedSequence).

    A child's entropy words are its parent's, zero-padded to the pool
    size, then its parent's spawn key and last its index, which fits in
    one 32-bit word.  numpy hashes a pool word past the entropy as 0, so
    the parent's own pool is the hash of every word before the index.
    The index column is mixed into the pools, and each child's 8
    `generate_state` words produced, for all children at once.  numpy's
    own PCG64 is seeded from those words, so unlike spawn's Generators
    these cannot spawn.  The result is an iterator, which makes each seed's
    Generators only when it reaches that seed's list.
    """
    # Only read, never spawned from, so a SeedSequence needs no copy here.
    seeds = [one if isinstance(one, np.random.SeedSequence) else np.random.SeedSequence(one)
             for one in seeds]
    rows, index, consts = [], [], {}
    for one, n in zip(seeds, counts):
        size = one.pool_size
        # The words before a child's index, the entropy padded to the pool size
        # and the spawn key, take `size` hashmix calls each, as does the index.
        num_words = (max(len(_entropy_words(one.entropy)), size)
                     + len(_entropy_words(one.spawn_key)))
        key, slot = (size, num_words), [i % size for i in range(8)]
        if key not in consts:
            consts[key] = _hash_consts(_INIT_A, _MULT_A, size * num_words, size).tolist()
        rows.append(one.pool[slot].tolist() + [consts[key][i + j] for j in (0, 1) for i in slot])
        index += range(one.n_children_spawned, one.n_children_spawned + n)
    # A row per child: its seed's pool and hash constants, and its index.
    pool, now, after = (np.array(rows, dtype=np.uint32).reshape(-1, 3, 8)
                        .swapaxes(0, 1).repeat(counts, axis=1))
    index = np.array(index, dtype=np.uint32)[:, None]
    state = _hashmix(_mix(pool, _hashmix(index, now, after)),
                     _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    # generate_state pairs the words little-endian; PCG64 reads each
    # row's memory, which the C-ordered result keeps contiguous.
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    state_words = _state_words_type()
    return ([np.random.Generator(np.random.PCG64(state_words(row))) for row in state[end - n:end]]
            for n, end in zip(counts, itertools.accumulate(counts)))


def sample_shots(probabilities, shots: int, seed, settings) -> ShotTable:
    """Seeded multinomial draws of `shots` shots from each row of a k x 2^w
    stack of outcome probabilities, such as `measure_in_basis` returns
    for k settings, as one table of k * `shots` shots whose row i counts
    settings[i].  Each row must be non-negative with a finite, positive
    sum, and is scaled to sum to 1.  `seed` lists one seed per row, each
    anything `default_rng` takes; a Generator's state advances.  Readout
    flips are already in the probabilities, from `run_density_matrix`."""
    stack = np.asarray(probabilities, dtype=float)
    if stack.ndim != 2 or not stack.size or stack.shape[1] & (stack.shape[1] - 1):
        raise ValueError("need a k x 2^w stack of outcome probabilities, "
                         f"got shape {stack.shape}")
    if not isinstance(seed, (list, tuple)) or len(seed) != len(stack):
        raise ValueError(f"need a list of {len(stack)} seeds, one per row, got {seed!r}")
    limit = (2**63 - 1) // len(stack)  # the table's total fits int64
    if not 1 <= _expect(shots, (int, np.integer), "shots must be an integer") <= limit:
        raise ValueError(f"shots must be in [1, {limit}], got {shots}")
    with np.errstate(over="ignore"):
        total = stack.sum(axis=1, keepdims=True)
    # np.min propagates NaN, and every comparison with NaN is false.
    if not (stack.min() >= 0 and total.min() > 0 and total.max() < np.inf):
        raise ValueError("outcome probabilities must be non-negative with a "
                         "finite, positive sum")
    draws = [np.random.default_rng(rng).multinomial(shots, p)
             for rng, p in zip(seed, stack / total)]
    return ShotTable(settings, np.array(draws))
