import gc
import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hetverify.tomography

from hetverify.circuits import (
    MAX_QUBITS,
    Circuit,
    NoiseModel,
    ShotTable,
    cu3,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    u3,
    x,
)
from hetverify.metrics import _pure_fidelities, trace_distance
from hetverify.states import StateVector, _reduce
from hetverify.tomography import (
    MAX_MEASURED_QUBITS,
    _pauli_frame,
    expectations_from_tables,
    pauli_strings,
    reconstruct_multi_qubit,
    reconstruct_single_qubit,
    tomography_sweep,
)
from hetverify.protocols import (
    BALANCED_ZETA,
    _multi_mode_groups,
    heterodyne_stage,
    ideal_output,
    single_mode_circuit,
)

from conftest import (
    PAULI_MATRICES,
    counts,
    marginals,
    random_density,
    random_pure,
    random_unphysical,
    shot_table,
)

PI = math.pi

SQRT_HALF = 1 / np.sqrt(2)


def bell_circuit():
    return Circuit(2, [u3(0, PI / 2, 0, PI), cu3(0, 1, PI, 0, PI)])


def sweep_alone(circuit, shots=None, seed=0, noise=None) -> dict:
    """One circuit's expectation set, from a one-item list sweep."""
    return tomography_sweep([circuit], shots=shots, seeds=[seed], noise=noise)[0]


def reconstruct(expectations, num_qubits):
    """One set's state, from a one-item list reconstruction."""
    (rho,) = reconstruct_multi_qubit([expectations], num_qubits)
    return rho


def ancilla_reads_one(rho, ancilla: int) -> float:
    """The probability that `ancilla` reads 1 in Z: the second half of a
    Z readout that reads it first."""
    order = [ancilla] + [q for q in range(rho.num_qubits) if q != ancilla]
    (probs,) = measure_in_basis([rho], ["Z" * rho.num_qubits], order)[0]
    return probs[len(probs) // 2:].sum()


def expectation_from_counts(table: ShotTable, string: str) -> float:
    """Per-string oracle: parity-weighted average of a table's counts.

    Identity positions are marginalized; every non-identity letter must
    match the table's measurement setting.
    """
    (setting,) = table.settings
    if len(string) != len(setting):
        raise ValueError(f"string {string!r} does not match setting {setting!r}")
    if not all(p == "I" or p == s for p, s in zip(string, setting)):
        raise ValueError(
            f"setting {setting!r} cannot estimate Pauli string {string!r}"
        )
    active = [i for i, letter in enumerate(string) if letter != "I"]
    total = 0
    for bits, count in counts(table).items():
        parity = sum(int(bits[i]) for i in active) % 2
        total += -count if parity else count
    return total / table.shots


class TestExpectationFromCounts:
    """The oracle above, on hand-computed tables."""

    def test_deterministic_plus_one(self):
        table = shot_table("Z", {"0": 100})
        assert expectation_from_counts(table, "Z") == 1.0

    def test_balanced_counts_vanish(self):
        table = shot_table("Z", {"0": 50, "1": 50})
        assert expectation_from_counts(table, "Z") == 0.0

    def test_two_qubit_parity(self):
        table = shot_table("ZZ", {"00": 40, "01": 10, "10": 10, "11": 40})
        assert expectation_from_counts(table, "ZZ") == pytest.approx(0.6)

    def test_identity_positions_marginalized(self):
        table = shot_table("ZZ", {"00": 30, "01": 30, "10": 20, "11": 20})
        assert expectation_from_counts(table, "ZI") == pytest.approx(0.2)

    def test_setting_mismatch_rejected(self):
        table = shot_table("Z", {"0": 1})
        with pytest.raises(ValueError, match="setting"):
            expectation_from_counts(table, "X")


class TestSingleQubitReconstruction:
    def test_zero_state(self):
        rho = reconstruct_single_qubit({"X": 0.0, "Y": 0.0, "Z": 1.0})
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_plus_state(self):
        rho = reconstruct_single_qubit({"X": 1.0, "Y": 0.0, "Z": 0.0})
        np.testing.assert_allclose(rho.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_maximally_mixed(self):
        rho = reconstruct_single_qubit({"X": 0.0, "Y": 0.0, "Z": 0.0})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_missing_expectation(self):
        for letter in "XYZ":
            ex = {p: 0.0 for p in "XYZ" if p != letter}
            with pytest.raises(ValueError, match=f"missing.*'{letter}'"):
                reconstruct_single_qubit(ex)

    def test_agrees_with_pauli_sum_on_random_states(self, rng):
        for _ in range(50):
            state = random_pure(rng, 1).density()
            ex = {
                p: float(np.real(np.trace(PAULI_MATRICES[p] @ state.matrix)))
                for p in ("X", "Y", "Z")
            }
            bloch = reconstruct_single_qubit(ex)
            full = reconstruct({"I": 1.0, **ex}, 1)
            np.testing.assert_allclose(bloch.matrix, full.matrix, atol=1e-12)
            formula = 0.5 * np.array(
                [[1 + ex["Z"], ex["X"] - 1j * ex["Y"]],
                 [ex["X"] + 1j * ex["Y"], 1 - ex["Z"]]])
            np.testing.assert_allclose(bloch.matrix, formula, rtol=0, atol=1e-12)


class TestMultiQubitReconstruction:
    def test_zero_zero_exact(self):
        (rho,) = reconstruct_multi_qubit(tomography_sweep([Circuit(2)]), 2)
        np.testing.assert_allclose(
            rho.matrix, StateVector.computational("00").density().matrix,
            atol=1e-10)

    def test_bell_state_roundtrip(self):
        (rho,) = reconstruct_multi_qubit(tomography_sweep([bell_circuit()]), 2)
        expected = ideal_output(bell_circuit())
        np.testing.assert_allclose(rho.matrix, expected.matrix, atol=1e-10)

    def test_all_zero_expectations_give_mixed(self):
        ex = {p: 0.0 for p in pauli_strings(2)}
        ex["II"] = 1.0
        np.testing.assert_allclose(reconstruct(ex, 2).matrix, np.eye(4) / 4)

    def test_incomplete_set_rejected(self):
        ex = {p: 0.0 for p in pauli_strings(2)[:-1]}
        with pytest.raises(ValueError, match="incomplete"):
            reconstruct_multi_qubit([ex], 2)

    def test_linearity(self, rng):
        a = {p: rng.uniform(-0.5, 0.5) for p in pauli_strings(2)}
        b = {p: rng.uniform(-0.5, 0.5) for p in pauli_strings(2)}
        a["II"] = b["II"] = 1.0
        mix = {p: 0.3 * a[p] + 0.7 * b[p] for p in a}
        mixed, first, second = reconstruct_multi_qubit([mix, a, b], 2)
        np.testing.assert_allclose(
            mixed.matrix, 0.3 * first.matrix + 0.7 * second.matrix, atol=1e-12)


def kron_chain(factors):
    full = np.ones((1, 1))
    for factor in factors:
        full = np.kron(full, factor)
    return full


def kron_stack(num_qubits):
    """Every Pauli string's matrix as an np.kron chain, in pauli_strings order."""
    return np.array([kron_chain([PAULI_MATRICES[p] for p in s])
                     for s in pauli_strings(num_qubits)])


def _reconstruct_by_loop(expectations, num_qubits):
    """The per-string Pauli sum over the np.kron matrices."""
    dim = 2**num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for string, pauli in zip(pauli_strings(num_qubits), kron_stack(num_qubits)):
        mat += expectations[string] * pauli
    mat /= dim
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_kronecker_tables_match_np_kron_bytewise(num_qubits):
    """Each string's np.kron matrix P has P[i ^ x, i] = i^#Y (-1)^popcount(z & i)
    exactly at the frame's cell (x, z), flat index lift[x, i] and phase,
    and 0 elsewhere; the Walsh matrix equals its np.kron chain byte for
    byte, signed zeros included.  The cell-ordered strings invert cells."""
    cells, phase, lift, walsh, _, _, by_cell = _pauli_frame(num_qubits)
    dim = 2**num_qubits
    strings = pauli_strings(num_qubits)
    assert [by_cell[cell] for cell in cells] == list(strings)
    for pauli, cell in zip(kron_stack(num_qubits), cells):
        unit = phase[cell]
        x, z = divmod(int(cell), dim)
        signs = [(-1) ** bin(z & i).count("1") for i in range(dim)]
        assert lift[x].tolist() == [(i ^ x) * dim + i for i in range(dim)]
        assert np.array_equal(pauli.ravel()[lift[x]], unit * np.array(signs))
        assert not np.delete(pauli.ravel(), lift[x]).any()
    assert walsh.tobytes() == kron_chain([[[1.0, 1.0], [1.0, -1.0]]] * num_qubits).tobytes()


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_exact_expectations_match_kron_einsum(monkeypatch, rng, num_qubits):
    # The exact sweep reads only rho.matrix, so any complex matrix can
    # stand in for the simulated state: Tr(P rho) must not assume that
    # rho is exactly Hermitian.
    dim = 2**num_qubits
    general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for matrix in (random_density(rng, num_qubits).matrix,
                   random_unphysical(rng, num_qubits).matrix, general):
        monkeypatch.setattr(hetverify.tomography, "run_density_matrix",
                            lambda circuit, noise: SimpleNamespace(matrix=matrix))
        (got,) = tomography_sweep([Circuit(num_qubits)])
        want = np.einsum("kij,ji->k", kron_stack(num_qubits), matrix).real
        assert list(got) == list(pauli_strings(num_qubits))
        np.testing.assert_allclose(list(got.values()), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_reconstruction_matches_per_string_loop(num_qubits, seed):
    # Uniform expectations in [-1, 1] are almost never a physical state;
    # the second set does not fix the identity's 1 either.
    rng = np.random.default_rng(seed)
    ex = {p: float(rng.uniform(-1, 1)) for p in pauli_strings(num_qubits)}
    for identity in (1.0, ex["I" * num_qubits]):
        ex["I" * num_qubits] = identity
        mat = reconstruct(ex, num_qubits).matrix
        np.testing.assert_allclose(mat, _reconstruct_by_loop(ex, num_qubits),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(mat, mat.conj().T)


class TestPauliFrameCache:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_cached_frame_is_read_only(self, num_qubits):
        frame = _pauli_frame(num_qubits)
        assert all(a is b for a, b in zip(_pauli_frame(num_qubits), frame))
        cells, phase, lift, walsh, hits, index, by_cell = frame
        for array in (cells, phase, lift, walsh, hits):
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            index["X" * num_qubits] = 0
        assert isinstance(by_cell, tuple)

    def test_frame_stays_small(self):
        # Every table at m = 4 together, against 1 MiB for the 256 dense
        # 16 x 16 matrices that the frame replaced.
        arrays = [a for a in _pauli_frame(4) if isinstance(a, np.ndarray)]
        assert len(arrays) == 5
        assert sum(a.nbytes for a in arrays) < 64 * 1024

    @pytest.mark.parametrize("num_qubits", [-1, MAX_QUBITS + 1])
    def test_frame_width_is_bounded(self, num_qubits):
        # A frame grows as 16^m: 4.3 MiB at m = 7, so none is built past
        # the largest register.
        before = _pauli_frame.cache_info().currsize, pauli_strings.cache_info().currsize
        for build in (pauli_strings, _pauli_frame):
            with pytest.raises(ValueError, match=f"needs 0 to 6 qubits, got {num_qubits}$"):
                build(num_qubits)
        assert (_pauli_frame.cache_info().currsize,
                pauli_strings.cache_info().currsize) == before

    @pytest.mark.parametrize("width", [MAX_MEASURED_QUBITS + 1, 7])
    def test_wide_table_rejected_before_any_frame(self, width):
        before = _pauli_frame.cache_info().currsize, pauli_strings.cache_info().currsize
        table = ShotTable(["Z" * width], np.ones((1, 2**width), dtype=np.int64))
        message = f"need at most 4 measured qubits, got {width}$"
        with pytest.raises(ValueError, match=message):
            expectations_from_tables(table)
        with pytest.raises(ValueError, match=message):
            reconstruct_multi_qubit([{}], width)
        assert (_pauli_frame.cache_info().currsize,
                pauli_strings.cache_info().currsize) == before


def five_qubit_circuit():
    gates = [x(0), x(1)]
    gates += [u3(q, PI / 2, PI / 2, PI / 2) for q in range(4)]
    gates += [x(4)] + [cu3(4, q, PI / 2, 0, 0) for q in range(4)]
    return Circuit(5, gates, ancilla=4)


@st.composite
def noisy_circuits(draw):
    """1-3 system qubits with or without an ancilla, under a NoiseModel
    whose readout flip probability is in (0, 0.5].

    The ancilla is put in |1>, tilted by at most pi/2 and then controls
    a rotation of each system qubit, so it reads 1 with probability at
    least 1/2 and post-selection keeps about half the shots or more.
    """
    angle = st.floats(-PI, PI)
    num_system = draw(st.integers(1, 3))
    ancilla = draw(st.none() | st.integers(0, num_system))
    num_qubits = num_system + (ancilla is not None)
    system = [q for q in range(num_qubits) if q != ancilla]
    gates = [u3(q, draw(angle), draw(angle), draw(angle)) for q in system]
    gates += [cu3(a, b, draw(angle), draw(angle), draw(angle))
              for a, b in zip(system, system[1:])]
    if ancilla is not None:
        gates += [x(ancilla),
                  u3(ancilla, draw(st.floats(0, PI / 2)), draw(angle), draw(angle))]
        gates += [cu3(ancilla, q, draw(angle), 0.0, 0.0) for q in system]
    noise = NoiseModel(draw(st.floats(0, 0.1)), draw(st.floats(0, 0.1)),
                       draw(st.floats(0, 0.5, exclude_min=True)))
    return Circuit(num_qubits, gates, ancilla), noise


class TestTomographySweep:
    def test_single_qubit_exact(self):
        assert tomography_sweep([Circuit(1)]) == [
            {"I": 1.0, "X": pytest.approx(0.0, abs=1e-12),
             "Y": pytest.approx(0.0, abs=1e-12), "Z": pytest.approx(1.0)}]

    def test_five_qubit_exact_matches_conditioned_simulator(self):
        circuit = five_qubit_circuit()
        (rho,) = reconstruct_multi_qubit(tomography_sweep([circuit]), 4)
        expected = ideal_output(circuit)
        assert trace_distance(rho, expected) < 1e-10

    def test_sampled_reconstruction_close_to_exact(self):
        circuit = five_qubit_circuit()
        expected = ideal_output(circuit)
        rho = reconstruct(sweep_alone(circuit, shots=8192, seed=0), 4)
        assert trace_distance(rho, expected) < 0.08

    def test_sampled_determinism(self):
        circuit = bell_circuit()
        a = tomography_sweep([circuit], shots=2048, seeds=[11])
        b = tomography_sweep([circuit], shots=2048, seeds=[11])
        assert a == b

    def test_seed_sequence_is_not_advanced(self):
        # The settings' Generators come from spawn_generators, which reads
        # the parent's spawn count without advancing it: two sweeps given
        # one SeedSequence object sample the same tables.
        circuit = bell_circuit()
        parent = np.random.SeedSequence(11)
        first = tomography_sweep([circuit], shots=2048, seeds=[parent])
        assert tomography_sweep([circuit], shots=2048, seeds=[parent]) == first
        assert parent.n_children_spawned == 0
        assert first == tomography_sweep([circuit], shots=2048, seeds=[11])

    def test_convergence_rate(self):
        # median trace distance shrinks monotonically with shot count
        circuit = bell_circuit()
        expected = ideal_output(circuit)
        medians = []
        for shots in (2**10, 2**13, 2**17):
            # Each seed's set is its circuit's swept alone.
            sweeps = tomography_sweep([circuit] * 5, shots=shots, seeds=list(range(5)))
            medians.append(np.median([trace_distance(rho, expected)
                                      for rho in reconstruct_multi_qubit(sweeps, 2)]))
        assert medians[0] > medians[1] > medians[2]

    def test_spread_halves_at_four_times_the_shots(self):
        """The spread of each Pauli estimate around the exact value falls
        as 1/sqrt(shots): 2x from S to 4S shots.

        A string with #I identity positions averages the kept shots of
        3^#I settings, each a +-1 draw with mean v, so K sweeps give
        T = sum_k (estimate_k - v)^2 / sigma^2 ~ chi^2_K, with sigma^2 =
        (1 - v^2) / (shots * kept * 3^#I).  ln(T / K) is close to
        normal with variance 2/K, so the ratio R of T/K at S to T/K at
        4S has ln R within 4 * sqrt(4 / K) of 0, and each T/K lies
        within 4 * sqrt(2 / K) of 0 in the log.  With K = 200 the spread
        ratio sqrt(4 R) is bounded to [1.51, 2.65].
        """
        circuit = heterodyne_stage(
            Circuit(3, [u3(0, 1.0, 0.3, 0.2), cu3(0, 1, 2.0, 0.0, 0.0),
                        u3(1, 0.7, -0.4, 0.9)], ancilla=2),
            PI / 3)
        noise = NoiseModel(0.02, 0.03, 0.02)
        shots, repeats = 1024, 200
        (exact,) = tomography_sweep([circuit], noise=noise)
        rho = run_density_matrix(circuit, noise)
        kept = ancilla_reads_one(rho, circuit.ancilla)
        # Separate seeds, so the two shot counts draw independent streams.
        runs = {s: tomography_sweep([circuit] * repeats, shots=s, noise=noise,
                                    seeds=list(range(i * repeats, (i + 1) * repeats)))
                for i, s in enumerate((shots, 4 * shots))}
        tolerance = 4 * math.sqrt(2 / repeats)
        for string, value in exact.items():
            if string == "II":
                continue
            scaled = {}  # T / K at each shot count
            for s, sweeps in runs.items():
                sigma2 = (1 - value**2) / (s * kept * 3 ** string.count("I"))
                scaled[s] = np.mean([(run[string] - value) ** 2
                                     for run in sweeps]) / sigma2
                assert abs(math.log(scaled[s])) <= tolerance, (string, s, scaled[s])
            log_ratio = math.log(scaled[shots] / scaled[4 * shots])
            assert abs(log_ratio) <= math.sqrt(2) * tolerance, (string, log_ratio)

    def test_too_many_measured_qubits(self):
        with pytest.raises(ValueError, match="at most 4 measured qubits"):
            tomography_sweep([Circuit(5)])

    def test_exact_readout_flip_on_single_mode(self):
        # Both qubits read |1>; the flips bias the system's <Z> and the
        # post-selection on the flipped ancilla leaves it unchanged.
        circuit = single_mode_circuit("1", BALANCED_ZETA)
        (ex,) = tomography_sweep([circuit], noise=NoiseModel(readout_flip_prob=0.1))
        assert ex["Z"] == pytest.approx(-0.8, abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=noisy_circuits())
    def test_exact_is_mean_of_sampled(self, case):
        """The mean of K seeded sampled sweeps lies within 5 sigma of
        the exact sweep for every Pauli string, readout flips and
        post-selection on the flipped ancilla included."""
        circuit, noise = case
        shots, repeats = 1000, 16
        (exact,) = tomography_sweep([circuit], noise=noise)
        runs = tomography_sweep([circuit] * repeats, shots=shots,
                                seeds=list(range(repeats)), noise=noise)
        kept = 1.0
        if circuit.ancilla is not None:
            rho = run_density_matrix(circuit, noise)
            kept = ancilla_reads_one(rho, circuit.ancilla)
        for string, value in exact.items():
            # Every kept shot of each of the 3^#I compatible settings
            # is one +-1 draw with mean `value`.
            draws = repeats * shots * kept * 3 ** string.count("I")
            sigma = math.sqrt(max(0.0, 1.0 - value**2) / draws)
            mean = np.mean([run[string] for run in runs])
            assert abs(mean - value) <= 5 * sigma + 1e-12, (string, mean, value)

    def test_empty_postselection_names_setting(self):
        # The ancilla of a gate-free circuit always reads 0.
        with pytest.raises(ValueError, match="'X'.*outcome 1 kept 0 of 16"):
            tomography_sweep([Circuit(2, ancilla=1)], shots=16, seeds=[0])


def reduced_fidelities(circuit, targets):
    """A protocol group's per-qubit fidelities for the exact output of
    `circuit`: each marginal of its reconstruction against its target."""
    vectors = np.array([t.amplitudes for t in targets])
    (group,), _, _ = _multi_mode_groups([(circuit, "N", BALANCED_ZETA, 1, 0)], vectors,
                                        None, None)
    return group["reduced_fidelities_input"]


class TestReducedFidelities:
    def test_product_state(self):
        targets = [StateVector.computational("1"),
                   StateVector.computational("0")]
        assert reduced_fidelities(Circuit(2, [x(0)]), targets) == \
            pytest.approx([1.0, 1.0])

    def test_bell_marginals(self):
        rho = reconstruct(sweep_alone(bell_circuit()), 2)
        marginals = _reduce(rho.matrix, ((0,), (1,)))
        np.testing.assert_allclose(_pure_fidelities(marginals, np.array([[1, 0], [1, 0]])),
                                   [SQRT_HALF, SQRT_HALF], atol=1e-10)

    def test_entangled_target_rejected(self):
        # The witness needs a product target; a Bell pair's marginals are I/2.
        with pytest.raises(ValueError, match="not a product of pure qubit states"):
            reduced_fidelities(bell_circuit(), [StateVector.computational("0")] * 2)

    def test_interferometer_output_marginals(self):
        targets = [StateVector.computational(b) for b in "1100"]
        np.testing.assert_allclose(reduced_fidelities(five_qubit_circuit(), targets),
                                   [SQRT_HALF] * 4, atol=1e-10)

    def test_target_count_mismatch(self):
        with pytest.raises(ValueError, match=r"need \(2, 2\) input target amplitudes"):
            reduced_fidelities(Circuit(2), [StateVector.computational("0")])


class TestExpectationIO:
    def test_assembly_from_external_tables(self):
        table = ShotTable(("X", "Y", "Z"), [[80, 20]] * 3)
        assert expectations_from_tables(table) == [
            {"I": 1.0, "X": pytest.approx(0.6), "Y": pytest.approx(0.6),
             "Z": pytest.approx(0.6)}]


def _assemble_by_loop(table, num_qubits):
    """Per-string reference assembly: the loop the vectorised code
    replaced, over one-row tables of the stack's rows."""
    by_setting = {setting: ShotTable([setting], row[None])
                  for setting, row in zip(table.settings, table.counts)}
    expectations = {}
    for string in pauli_strings(num_qubits):
        if set(string) == {"I"}:
            expectations[string] = 1.0
            continue
        num, den = 0.0, 0
        for setting, table in by_setting.items():
            compatible = all(p in ("I", q) for p, q in zip(string, setting))
            if compatible and table.shots > 0:
                num += expectation_from_counts(table, string) * table.shots
                den += table.shots
        if den == 0:
            raise ValueError(f"no shot table can estimate {string!r}")
        expectations[string] = num / den
    return expectations


def _random_stack(num_qubits, seed, keep, zero_shot):
    """A stack of shuffled rows over a random subset of settings, some
    empty, with uneven shot totals.  A stack holds at least one row, so
    the first setting stands in for an empty subset."""
    rng = np.random.default_rng(seed)
    settings_ = ["".join(s) for s in itertools.product("XYZ", repeat=num_qubits)]
    chosen = [s for s in settings_ if rng.random() < keep] or settings_[:1]
    rows = []
    for setting in chosen:
        if rng.random() < zero_shot:
            rows.append((setting, np.zeros(2**num_qubits, dtype=np.int64)))
            continue
        shots = int(rng.integers(1, 5000))
        draws = rng.multinomial(shots, rng.dirichlet(np.ones(2**num_qubits)))
        rows.append((setting, draws))
    rng.shuffle(rows)
    settings_, counts_ = zip(*rows)
    return ShotTable(settings_, np.array(counts_))


class TestVectorisedAssembly:
    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           keep=st.sampled_from([0.4, 0.9, 1.0]),
           zero_shot=st.sampled_from([0.0, 0.1]))
    def test_matches_per_string_loop(self, num_qubits, seed, keep, zero_shot):
        table = _random_stack(num_qubits, seed, keep, zero_shot)
        try:
            expected = _assemble_by_loop(table, num_qubits)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                expectations_from_tables(table)
            # A k x 2^w table is circuit 0.
            assert str(caught.value) == f"circuit 0: {err}"
            return
        (got,) = expectations_from_tables(table)
        assert list(got) == list(expected)
        # Terms are added in the loop's order, so the sums agree exactly.
        assert got == expected

    def test_all_zero_row(self):
        # An empty row is skipped, so its setting's string has no estimate.
        table = ShotTable(("X", "Y", "Z"), [[10, 0], [3, 4], [0, 0]])
        with pytest.raises(ValueError, match="no shot table can estimate 'Z'"):
            _assemble_by_loop(table, 1)
        with pytest.raises(ValueError, match="no shot table can estimate 'Z'"):
            expectations_from_tables(table)

    @pytest.mark.parametrize("setting", ["ZZ", "", "Q", "z"])
    def test_malformed_setting_rejected(self, setting):
        # A stack holds settings of one width over X, Y and Z, so the
        # assembly reads its width from any one of them.
        with pytest.raises(ValueError, match="letters from X, Y, Z"):
            ShotTable(("X", "Y", "Z", setting), np.full((4, 2), 5))

    def test_malformed_outcome_rejected(self):
        # A table checks the length of its count rows when it is built,
        # so no outcome of the wrong width reaches the assembly.
        for row in ([5, 0, 1, 0], [6], [5, 0, 1]):
            with pytest.raises(ValueError, match="'X' needs 2 counts"):
                ShotTable(["X"], np.array([row]))

    def test_zero_qubits(self):
        # A width-0 row, such as a one-bit table post-selected on its bit,
        # estimates only the empty string.
        table = ShotTable(["Z"], [[3, 4]]).postselect(0)
        assert expectations_from_tables(table) == [{"": 1.0}]
        # With no shots at all, even the identity has no estimate.
        with pytest.raises(ValueError, match="no shot table can estimate ''"):
            expectations_from_tables(ShotTable(["Z"], [[3, 0]]).postselect(0))

    def test_unestimable_string_rejected(self):
        table = ShotTable(("ZZ", "XY"), [[5, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError, match="no shot table can estimate 'IX'"):
            expectations_from_tables(table)
        # The identity reads every row; the error still names a Pauli
        # string when no row has shots.
        empty = ShotTable(("ZZ", "XY"), np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="no shot table can estimate 'IX'"):
            expectations_from_tables(empty)


def _random_tables(num_qubits, seed, circuits, keep, zero_shot):
    """`circuits` tables over the settings of one `_random_stack`, the
    first that stack and each other with counts of its own, some rows
    empty, so they can be stacked into one table."""
    tables = [_random_stack(num_qubits, seed, keep, zero_shot)]
    rng = np.random.default_rng([seed, 1])
    for _ in range(circuits - 1):
        rows = [rng.multinomial(int(rng.integers(1, 5000)),
                                rng.dirichlet(np.ones(2**num_qubits)))
                if rng.random() >= zero_shot else np.zeros(2**num_qubits, dtype=np.int64)
                for _ in tables[0].settings]
        tables.append(ShotTable(tables[0].settings, np.array(rows)))
    return tables


class TestStackedAssembly:
    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           circuits=st.integers(1, 5), keep=st.sampled_from([0.4, 0.9, 1.0]),
           zero_shot=st.sampled_from([0.0, 0.05, 0.2]))
    def test_matches_per_circuit_calls(self, num_qubits, seed, circuits, keep, zero_shot):
        """A stacked table's sets have the bytes of each circuit's table
        assembled alone; an error names the first circuit that fails."""
        tables = _random_tables(num_qubits, seed, circuits, keep, zero_shot)
        stack = ShotTable(tables[0].settings, np.stack([t.counts for t in tables]))
        alone = []
        for j, table in enumerate(tables):
            try:
                alone += expectations_from_tables(table)
            except ValueError as err:
                with pytest.raises(ValueError) as caught:
                    expectations_from_tables(stack)
                # Each table assembled alone is circuit 0.
                assert str(caught.value) == f"circuit {j}: " + str(err).removeprefix(
                    "circuit 0: ")
                return
        assert _exact_bits(expectations_from_tables(stack)) == _exact_bits(alone)

    def test_one_circuit_stack_is_a_list(self):
        # A k x 2^w table and its 1 x k x 2^w stack are one circuit each.
        table = ShotTable(("X", "Y", "Z"), [[80, 20], [50, 50], [90, 10]])
        stack = ShotTable(table.settings, table.counts[None])
        sets = expectations_from_tables(table)
        assert isinstance(sets, list) and len(sets) == 1
        assert _exact_bits(expectations_from_tables(stack)) == _exact_bits(sets)

    def test_width_is_checked_for_a_stack(self):
        """A stack's sets cover the 4^w strings of its settings' width w."""
        for width in (1, 2, 3):
            settings_ = ["".join(s) for s in itertools.product("XYZ", repeat=width)]
            stack = ShotTable(settings_, np.ones((2, len(settings_), 2**width), dtype=int))
            sets = expectations_from_tables(stack)
            assert [list(one) for one in sets] == [list(pauli_strings(width))] * 2


class TestBatchedReconstruction:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_list_matches_per_set_calls(self, rng, num_qubits):
        strings = pauli_strings(num_qubits)
        sets = [dict(zip(strings, [1.0, *rng.uniform(-1, 1, len(strings) - 1)]))
                for _ in range(9)]
        alone = [reconstruct(one, num_qubits).matrix.tobytes() for one in sets]
        for batch in (sets, tuple(sets), sets[:1]):
            got = reconstruct_multi_qubit(batch, num_qubits)
            assert isinstance(got, list)
            assert [rho.matrix.tobytes() for rho in got] == alone[:len(batch)]

    def test_empty_list_and_incomplete_set(self):
        assert reconstruct_multi_qubit([], 2) == []
        full = dict.fromkeys(pauli_strings(2), 0.0)
        partial = {k: v for k, v in full.items() if k != "ZY"}
        with pytest.raises(ValueError, match="missing e.g. 'ZY'"):
            reconstruct_multi_qubit([full, partial], 2)

    @pytest.mark.parametrize("value", ["a", None, b"1", 2**70],
                             ids=["str", "none", "bytes", "past-int64"])
    def test_values_must_be_numbers(self, value):
        full = dict.fromkeys(pauli_strings(1), 0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"expectation set 1: 'Y' must be a number, got {value!r}")):
            reconstruct_multi_qubit([full, {**full, "Y": value}], 1)

    def test_complex_values_fail_the_hermitian_check(self):
        one = {**dict.fromkeys(pauli_strings(1), 0.0), "I": 1.0, "X": 0.5j}
        with pytest.raises(ValueError, match="not finite and Hermitian"):
            reconstruct_multi_qubit([one], 1)

    @pytest.mark.parametrize("num_qubits", [1.0, True, "1", None], ids=str)
    def test_num_qubits_must_be_an_integer(self, num_qubits):
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            reconstruct_multi_qubit([dict.fromkeys(pauli_strings(1), 0.0)], num_qubits)


def _sweep_by_loop(circuit, shots, seed, noise):
    """The per-setting loop that the stacked sweep replaced: each
    setting's row drawn with numpy's own spawned child seed, then
    post-selected as a table of its own."""
    measured = list(circuit.system_qubits)
    noiseless = noise is None or noise == NoiseModel()
    state = (run_statevector(circuit) if noiseless
             else run_density_matrix(circuit, noise))
    ancilla = [] if circuit.ancilla is None else [circuit.ancilla]
    settings_ = ["".join(s) + "Z" * len(ancilla)
                 for s in itertools.product("XYZ", repeat=len(measured))]
    (probs,) = measure_in_basis([state], settings_, measured + ancilla)
    children = np.random.SeedSequence(seed).spawn(len(settings_))
    tables = []
    for setting, child, p in zip(settings_, children, probs):
        table = ShotTable([setting], np.random.default_rng(child).multinomial(
            shots, p / p.sum())[None])
        tables.append(table.postselect(len(measured)) if ancilla else table)
    return tables


class TestStackedSweep:
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("ancilla", [None, "first", "last"])
    @pytest.mark.parametrize("num_system", [1, 2, 3, 4])
    def test_matches_per_setting_loop(self, monkeypatch, num_system, ancilla, noisy):
        """The stacked sweep's count matrix and expectations equal the
        per-setting loop's tables, row for row, and their per-string
        assembly."""
        num_qubits = num_system + (ancilla is not None)
        anc = {None: None, "first": 0, "last": num_qubits - 1}[ancilla]
        system = [q for q in range(num_qubits) if q != anc]
        gates = [u3(q, 0.3 + 0.4 * q, 0.2, -0.1 * q) for q in system]
        gates += [cu3(a, b, 0.7, 0.1, 0.2) for a, b in zip(system, system[1:])]
        if anc is not None:
            gates += [x(anc), u3(anc, 0.5, 0.1, 0.0)]
            gates += [cu3(anc, q, 0.4 + 0.1 * q, 0.0, 0.0) for q in system]
        circuit = Circuit(num_qubits, gates, anc)
        noise = NoiseModel(0.01, 0.02, 0.03) if noisy else None
        assembled = []

        def capture(table):
            assembled.append(table)
            return expectations_from_tables(table)

        monkeypatch.setattr(hetverify.tomography, "expectations_from_tables", capture)
        references = []
        for seed in (0, 7):
            assembled.clear()
            got = tomography_sweep([circuit], shots=256, seeds=[seed], noise=noise)
            rows = _sweep_by_loop(circuit, 256, seed, noise)
            reference = ShotTable([r.settings[0] for r in rows],
                                  np.concatenate([r.counts for r in rows]))
            assert assembled == [reference]
            assert got == [_assemble_by_loop(reference, num_system)]
            references.append(reference)
        # Both seeds in one sweep: one stacked table, circuit by circuit.
        assembled.clear()
        got = tomography_sweep([circuit, circuit], shots=256, seeds=[0, 7], noise=noise)
        assert assembled == [ShotTable(reference.settings,
                                       np.stack([r.counts for r in references]))]
        assert got == [_assemble_by_loop(r, num_system) for r in references]

    def test_empty_postselection_names_first_empty_setting(self):
        # The ancilla reads 1 half the time, so one shot leaves some
        # settings empty, not always the first.
        circuit = Circuit(3, [u3(2, PI / 2, 0, 0), u3(0, 0.3, 0, 0)], ancilla=2)
        firsts = []
        for seed in range(8):
            rows = _sweep_by_loop(circuit, 1, seed, None)
            first = next(i for i, r in enumerate(rows) if r.shots == 0)
            firsts.append(first)
            message = f"setting '{rows[first].settings[0]}': .* kept 0 of 1 shots"
            with pytest.raises(ValueError, match=message):
                tomography_sweep([circuit], shots=1, seeds=[seed])
        assert max(firsts) > 0


    def test_list_error_names_the_first_failing_circuit(self):
        """Each layout is post-selected as one stack, and the first circuit
        in input order that kept no shots of a setting is named, as when
        the circuits are swept one by one."""
        with pytest.raises(ValueError, match="^setting 'XX': .* kept 0 of 4 shots"):
            tomography_sweep([Circuit(2, [x(1)], ancilla=1), Circuit(3, ancilla=2),
                              Circuit(2, ancilla=1)], shots=4, seeds=[1, 2, 3])
        # Each ancilla reads 1 half the time, so two shots leave some
        # settings of some circuits empty.
        one = Circuit(2, [u3(1, PI / 2, 0, 0), u3(0, 0.3, 0, 0)], ancilla=1)
        two = Circuit(3, [u3(2, PI / 2, 0, 0), u3(0, 0.3, 0, 0)], ancilla=2)
        circuits, firsts = [one, two, one, two], set()
        for seed in range(12):
            seeds = [4 * seed + i for i in range(4)]
            errors = []
            for circuit, child in zip(circuits, seeds):
                try:
                    tomography_sweep([circuit], shots=2, seeds=[child])
                except ValueError as err:
                    errors.append(str(err))
                else:
                    errors.append(None)
            first = next((i for i, e in enumerate(errors) if e), None)
            if first is None:
                assert len(tomography_sweep(circuits, shots=2, seeds=seeds)) == 4
                continue
            firsts.add(first)
            with pytest.raises(ValueError) as caught:
                tomography_sweep(circuits, shots=2, seeds=seeds)
            assert str(caught.value) == errors[first]
        assert len(firsts) > 1


def _layout_circuit(num_system, ancilla, shift):
    """`num_system` system qubits, entangled in a chain, and with `ancilla`
    "first" or "last" an ancilla in |1> tilted by a little, controlling a
    rotation of each of them; `shift` varies the angles."""
    num_qubits = num_system + (ancilla is not None)
    anc = {None: None, "first": 0, "last": num_qubits - 1}[ancilla]
    system = [q for q in range(num_qubits) if q != anc]
    gates = [u3(q, 0.3 + 0.4 * q + shift, 0.2, -0.1 * q) for q in system]
    gates += [cu3(a, b, 0.7 - shift, 0.1, 0.2) for a, b in zip(system, system[1:])]
    if anc is not None:
        gates += [x(anc), u3(anc, 0.5, 0.1, shift)]
        gates += [cu3(anc, q, 0.4 + 0.1 * q, 0.0, 0.0) for q in system]
    return Circuit(num_qubits, gates, anc)


# Mixed layouts, with repeats that are not next to each other.
BATCH = [(1, "last"), (2, None), (1, "last"), (3, "first"), (4, "last"),
         (2, None), (1, None), (2, "last"), (4, None), (1, "last")]


def _exact_bits(sweeps):
    """Every expectation's exact bits, so equality is byte for byte."""
    return [[(s, v.hex()) for s, v in sweep.items()] for sweep in sweeps]


class TestBatchedSweep:
    @pytest.mark.parametrize("shots", [None, 128], ids=["exact", "sampled"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("seeds", ["int", "SeedSequence"])
    def test_list_matches_per_circuit_calls(self, seeds, noisy, shots):
        circuits = [_layout_circuit(m, anc, 0.1 * i) for i, (m, anc) in enumerate(BATCH)]
        noise = NoiseModel(0.01, 0.02, 0.03) if noisy else None
        if seeds == "int":
            seeds = [5 * i + 1 for i in range(len(circuits))]
        else:
            parent = np.random.SeedSequence(42)
            parent.spawn(3)
            seeds = parent.spawn(len(circuits))
            seeds[4] = np.random.SeedSequence(8, spawn_key=(1, 2, 3))
        got = tomography_sweep(circuits, shots=shots, seeds=seeds, noise=noise)
        alone = [sweep_alone(c, shots=shots, seed=s, noise=noise)
                 for c, s in zip(circuits, seeds)]
        assert _exact_bits(got) == _exact_bits(alone)
        assert tomography_sweep(tuple(circuits), shots=shots, seeds=tuple(seeds),
                                noise=noise) == got
        assert all(getattr(s, "n_children_spawned", 0) == 0 for s in seeds)

    def test_draws_in_input_order(self, monkeypatch):
        """The tables are drawn circuit by circuit, in input order, with
        each circuit's rows as its own sweep draws them."""
        circuits = [_layout_circuit(m, anc, 0.2 * i) for i, (m, anc) in enumerate(BATCH)]
        draws = []

        def recording(probabilities, shots, seed, settings):
            table = sample_shots(probabilities, shots, seed, settings)
            draws.append((table.settings, table.counts.tobytes()))
            return table

        monkeypatch.setattr(hetverify.tomography, "sample_shots", recording)
        tomography_sweep(circuits, shots=64, seeds=list(range(len(circuits))))
        batched = list(draws)
        draws.clear()
        for seed, circuit in enumerate(circuits):
            tomography_sweep([circuit], shots=64, seeds=[seed])
        assert batched == draws and len(draws) == len(circuits)

    def test_chunked_sweep_matches_one_chunk(self, monkeypatch):
        """A sweep longer than the chunk runs chunk by chunk in input order:
        the same sets and the same draws, in the same order, as one chunk,
        and each chunk measures each of its layouts once."""
        circuits = [_layout_circuit(m, anc, 0.2 * i) for i, (m, anc) in enumerate(BATCH)]
        seeds = list(range(len(circuits)))
        draws, measured = [], []

        def recording(probabilities, shots, seed, settings):
            table = sample_shots(probabilities, shots, seed, settings)
            draws.append((table.settings, table.counts.tobytes()))
            return table

        def measuring(states, settings, qubits=None):
            measured.append(len(states))
            return measure_in_basis(states, settings, qubits)

        monkeypatch.setattr(hetverify.tomography, "sample_shots", recording)
        monkeypatch.setattr(hetverify.tomography, "measure_in_basis", measuring)
        whole = tomography_sweep(circuits, shots=64, seeds=seeds)
        whole_draws, whole_measured = list(draws), list(measured)
        draws.clear()
        measured.clear()
        monkeypatch.setattr(hetverify.tomography, "_CHUNK", 4)
        assert _exact_bits(tomography_sweep(circuits, shots=64, seeds=seeds)) \
            == _exact_bits(whole)
        assert draws == whole_draws and len(draws) == len(circuits)
        # BATCH's 7 layouts measure once each in one chunk; in chunks of 4,
        # each chunk measures each of its own layouts once.
        assert whole_measured == [3, 2, 1, 1, 1, 1, 1]
        assert measured == [2, 1, 1, 1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("order", ["layout-order", "other-layout-first"])
    def test_chunked_error_names_the_first_failing_circuit(self, monkeypatch, order):
        """With two layouts interleaved over chunks of 3, post-selection
        fails in the second chunk for a circuit of each layout, and the
        error names the one first in input order, whichever layout the
        chunk measures first."""
        good = [Circuit(2, [x(1), u3(0, 0.3, 0, 0)], ancilla=1),
                Circuit(3, [x(2), u3(1, 1.1, 0, 0)], ancilla=2)]
        fails = [Circuit(3, ancilla=2), Circuit(2, ancilla=1)]
        if order == "other-layout-first":
            fails.reverse()
        circuits = good + good + fails
        monkeypatch.setattr(hetverify.tomography, "_CHUNK", 3)
        first = "XX" if order == "layout-order" else "X"
        with pytest.raises(ValueError, match=f"^setting '{first}': .* kept 0 of 8 shots"):
            tomography_sweep(circuits, shots=8, seeds=list(range(6)))

    def test_one_circuits_generators_alive_at_a_time(self, monkeypatch):
        """Each circuit's Generators are made for its draw and dropped
        after it, so no draw sees another circuit's alive."""
        def live():
            return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())

        alive = []

        def counting(probabilities, shots, seed, settings):
            alive.append(live() - before)
            return sample_shots(probabilities, shots, seed, settings)

        monkeypatch.setattr(hetverify.tomography, "sample_shots", counting)
        circuits = [_layout_circuit(1, None, 0.1 * i) for i in range(4)]
        gc.collect()
        before = live()
        tomography_sweep(circuits, shots=16, seeds=list(range(4)))
        assert alive == [3] * 4
        assert live() == before

    def test_stacks_stay_below_int64(self, monkeypatch):
        """A one-qubit table with an ancilla holds 3 x shots, so at 2^61
        shots no two tables fit one stack below 2^63 and at 2^60 two do;
        the sweep splits the stacks, and each set is its circuit's own."""
        circuits = [_layout_circuit(1, "last", 0.1 * i) for i in range(3)]
        shapes = []
        assemble = hetverify.tomography.expectations_from_tables

        def shaped(table):
            shapes.append(table.counts.shape)
            return assemble(table)

        monkeypatch.setattr(hetverify.tomography, "expectations_from_tables", shaped)
        for shots, expected in ((2**61, [(3, 2)] * 3), (2**60, [(2, 3, 2), (3, 2)])):
            shapes.clear()
            got = tomography_sweep(circuits, shots=shots, seeds=[4, 5, 6])
            assert shapes == expected
            alone = [sweep_alone(c, shots=shots, seed=s)
                     for c, s in zip(circuits, [4, 5, 6])]
            assert _exact_bits(got) == _exact_bits(alone)

    def test_one_circuit_list_and_empty_list(self):
        circuit = bell_circuit()
        assert tomography_sweep([circuit], shots=256, seeds=[3]) == tomography_sweep(
            [circuit, five_qubit_circuit()], shots=256, seeds=[3, 4])[:1]
        assert tomography_sweep([], shots=256, seeds=[]) == []
        assert tomography_sweep([]) == []

    def test_exact_sweep_needs_no_seeds(self):
        circuits = [_layout_circuit(m, anc, 0.1 * i) for i, (m, anc) in enumerate(BATCH)]
        got = tomography_sweep(circuits)
        assert len(got) == len(circuits)
        seeded = tomography_sweep(circuits, seeds=list(range(len(circuits))))
        assert _exact_bits(got) == _exact_bits(seeded)

    @pytest.mark.parametrize("seeds", [None, 3, [1], (1, 2, 3), np.random.SeedSequence(1)],
                             ids=["none", "int", "short", "long", "SeedSequence"])
    def test_needs_one_seed_per_circuit(self, seeds):
        with pytest.raises(ValueError, match=r"need one seed per circuit \(2\)"):
            tomography_sweep([bell_circuit()] * 2, shots=16, seeds=seeds)

    def test_every_circuit_is_checked_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hetverify.tomography, "run_statevector",
                            lambda c: calls.append(c))
        with pytest.raises(ValueError, match="at most 4 measured qubits, got 5"):
            tomography_sweep([bell_circuit(), Circuit(5)], shots=16, seeds=[1, 2])
        assert calls == []


@pytest.mark.parametrize("call, expected", [
    (lambda: tomography_sweep(bell_circuit()), "circuits, got a Circuit"),
    (lambda: tomography_sweep(bell_circuit(), shots=16, seeds=[1]), "circuits, got a Circuit"),
    (lambda: reconstruct_multi_qubit(dict.fromkeys(pauli_strings(1), 0.0), 1),
     "expectation sets, got a dict"),
], ids=["exact sweep", "sampled sweep", "reconstruction"])
def test_one_item_must_come_as_a_list(call, expected):
    with pytest.raises(ValueError, match=f"^need a list of {expected}$"):
        call()
