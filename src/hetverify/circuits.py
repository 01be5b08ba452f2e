"""Gate model, exact simulation backends, measurement, and shot sampling.

Supported gates are X, the three-angle single-qubit rotation U3, and its
controlled version CU3 -- enough to express every circuit the protocols
build.  Systems stay small (at most 6 qubits), so both backends work
with dense matrices.  Each gate's matrix is built once per (gate,
register size) and shared read-only by every later simulation, and
each block of up to 9 basis rotations likewise.  Measurement takes a
list of states and a list of settings, one of each as a list of one,
and gives one array of outcome probabilities, as a ShotTable counts.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache

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


_BLOCK = 9  # settings per stacked product; sizes each call's work arrays


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


def measure_in_basis(states, settings, qubits=None) -> np.ndarray:
    """Outcome probabilities of measuring `qubits` of each of c states (a
    list of one kind and size) in each of k settings (a list of strings),
    as a c x k x 2^w float array indexed by outcome as a ShotTable's
    count rows, the first of `qubits` the most significant bit.

    A setting has one letter from {X, Y, Z} per measured qubit; X and Y
    are realized by a pre-rotation into the computational basis followed
    by a Z readout.  Unmeasured qubits are marginalized.  Rows come from
    stacked products over blocks of at most 9 cached rotations, each with
    the bytes of its state and setting measured alone.  For density
    matrices, the conjugated rotations and both products of every block
    go into three work arrays allocated once per call: arrays allocated
    per block would be returned to the operating system and page-faulted
    back in at the next block.  `qubits` must be distinct state indices.
    A probability below -PROB_ATOL, or a row sum that is not finite and
    positive, raises ValueError; smaller negatives are set to zero, and
    each row is scaled to sum to 1.
    """
    states, settings = _listed(states, "states"), _listed(settings, "settings")
    for one in states:
        if not isinstance(one, (StateVector, DensityMatrix)):
            raise TypeError(f"cannot measure a {type(one).__name__}")
    layouts = {(type(one), one.num_qubits) for one in states}
    if len(layouts) != 1:
        raise ValueError("need at least one state, all of one kind and size")
    (kind, num_qubits), = layouts
    qubits = tuple(range(num_qubits)) if qubits is None else tuple(qubits)
    if len(set(qubits)) != len(qubits) or not set(qubits) <= set(range(num_qubits)):
        raise ValueError(f"cannot measure qubits {list(qubits)}: each must be a "
                         f"distinct index in [0, {num_qubits})")
    if not settings:
        raise ValueError("no basis setting to measure")
    for one in settings:
        if len(one) != len(qubits):
            raise ValueError(f"setting {one!r} does not match {len(qubits)} qubits")
    bad = set().union(*settings) - set("XYZ")
    if bad:
        raise ValueError(f"invalid basis character(s) {sorted(bad)}")

    dim = 2**num_qubits
    probs_full = np.empty((len(states), len(settings), dim))
    if kind is DensityMatrix:
        conj, left, both = (np.empty((min(_BLOCK, len(settings)), dim, dim), complex)
                            for _ in range(3))
    for start in range(0, len(settings), _BLOCK):
        rot = _rotation_stack(settings[start:start + _BLOCK], qubits, num_qubits)
        k = len(rot)
        if kind is StateVector:
            # A matrix-vector product per state and setting, as for one state alone.
            amps = np.array([one.amplitudes for one in states])[:, None, :, None]
            probs_full[:, start:start + k] = np.abs(rot @ amps)[..., 0] ** 2
            continue
        np.conjugate(rot, out=conj[:k])
        for row, one in enumerate(states):
            np.matmul(rot, one.matrix, out=left[:k])
            np.matmul(left[:k], conj[:k].transpose(0, 2, 1), out=both[:k])
            probs_full[row, start:start + k] = np.diagonal(both[:k], axis1=1, axis2=2).real

    tensor = probs_full.reshape((-1,) + (2,) * num_qubits)
    unmeasured = tuple(1 + q for q in range(num_qubits) if q not in qubits)
    marginal = tensor.sum(axis=unmeasured) if unmeasured else tensor
    # Report outcomes in the caller's qubit order.
    kept = [q for q in range(num_qubits) if q in qubits]
    marginal = marginal.transpose([0] + [1 + kept.index(q) for q in qubits])
    marginal = marginal.reshape(len(tensor), -1)
    # A density matrix may be unphysical; NaN fails each check.
    with np.errstate(over="ignore"):
        low, sums = marginal.min(), marginal.sum(axis=1)
    if not low >= -PROB_ATOL:
        raise ValueError(f"the state gives outcome probability {low}, below -{PROB_ATOL}")
    if not (sums.min() > 0 and sums.max() < np.inf):
        raise ValueError("the state's outcome probabilities need a finite, positive sum")
    marginal = np.clip(marginal, 0.0, None)
    marginal /= marginal.sum(axis=1, keepdims=True)
    return marginal.reshape(len(states), len(settings), -1)


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Shot counts for a stack of k basis settings of one width w.

    `settings` is a list or tuple of k strings of letters from X, Y and
    Z.  Row i of the k x 2^w `counts` matrix counts the outcomes of
    settings[i] in index order, qubit 0 the most significant bit.  A
    c x k x 2^w `counts` stacks the tables of c circuits measured in the
    same k settings, circuit j's matrix at counts[j], as
    `measure_in_basis` stacks a list of states.  `shots` is the total of
    every count, below 2^63, so no int64 sum of counts wraps.  An int64
    array is stored without a copy and made read-only."""

    settings: tuple
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        # A string would pass as a stack of one-letter settings.
        settings = tuple(_expect(self.settings, (list, tuple),
                                 "settings must be a list or tuple of strings"))
        if not settings:
            raise ValueError("a shot table needs at least one setting")
        # Whole-tuple checks, as join takes only strings; a failure alone
        # looks for the setting to name.
        try:
            letters = "".join(settings)
        except TypeError:
            bad = next(s for s in settings if not isinstance(s, str))
            raise ValueError(f"setting {bad!r} is not a string of letters "
                             "from X, Y, Z") from None
        width = len(settings[0])
        if set(map(len, settings)) != {width} or letters.strip("XYZ"):
            bad = next(s for s in settings if len(s) != width or s.strip("XYZ"))
            raise ValueError(f"setting {bad!r} is not {width} letters from X, Y, Z")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim not in (2, 3) or counts.shape[-2:] != (len(settings), 2**width) \
                or not counts.size:
            raise ValueError(f"setting {settings[0]!r} needs {2**width} counts per "
                             f"row, {len(settings)} rows, got shape {counts.shape}")
        # As uint64 a negative count is at least 2^63, so if no count exceeds
        # its share of 2^63 - 1, none is negative and the int64 sum is exact.
        small = counts.view(np.uint64).max() <= (2**63 - 1) // counts.size
        total = int(counts.sum()) if small else sum(counts.ravel().tolist())
        if (not small and counts.min() < 0) or total != self.shots or total >= 2**63:
            raise ValueError("counts must be non-negative and sum to the declared "
                             "shot total, below 2^63")
        counts.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        if not isinstance(other, ShotTable):
            return NotImplemented
        return ((self.settings, self.shots) == (other.settings, other.shots)
                and np.array_equal(self.counts, other.counts))

    def postselect(self, bit: int, value: int) -> "ShotTable":
        """Keep every row's shots whose `bit` reads `value`, 0 or 1; drop that
        bit.  A stacked table post-selects every circuit's rows at once."""
        width = len(self.settings[0])
        if bit not in range(width) or value not in (0, 1):
            raise ValueError(f"cannot post-select bit {bit!r} on {value!r}: need a "
                             f"bit in [0, {width}) and a value 0 or 1")
        kept = self.counts.reshape(-1, 2**bit, 2, 2 ** (width - bit - 1))[:, :, value]
        return ShotTable(tuple(s[:bit] + s[bit + 1:] for s in self.settings),
                         kept.reshape(self.counts.shape[:-1] + (-1,)), int(kept.sum()))


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

    Defined on first use, because importing numpy.random takes about
    10 ms that an exact run never needs.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def spawn_generators(seeds, counts) -> list:
    """For each seed and its count, the Generators
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
    these cannot spawn.
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
    generators = [np.random.Generator(np.random.PCG64(state_words(row))) for row in state]
    return [generators[end - n:end] for n, end in zip(counts, itertools.accumulate(counts))]


def sample_shots(probabilities, shots: int, seed, settings) -> ShotTable:
    """Seeded multinomial draws of `shots` shots from each row of a k x 2^w
    stack of outcome probabilities, such as `measure_in_basis` returns
    for k settings, as one table whose row i counts settings[i].  Each row
    must be non-negative with a finite, positive sum, and is scaled to sum
    to 1.  `seed` lists one seed per row, each anything `default_rng`
    takes; a Generator's state advances.  Readout flips are already in
    the probabilities, folded in by `run_density_matrix`."""
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
    return ShotTable(settings, np.array(draws), shots * len(stack))
