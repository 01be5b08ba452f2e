import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetverify.circuits import (
    _I2,
    _P0,
    _P1,
    BASIS_ROTATIONS,
    Circuit,
    Gate,
    NoiseModel,
    ShotTable,
    _gate_unitary,
    _pauli_frame,
    _rotation_stack,
    cu3,
    _embed,
    depolarize,
    gate_unitary,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    spawn_generators,
    u3,
    u3_matrix,
    x,
)
from hetverify.states import PROB_ATOL, DensityMatrix, StateVector

from conftest import (PAULI_MATRICES, counts, outcome_labels, random_density, random_pure,
                      shot_table)

PI = math.pi


def apply_gate(state: StateVector, gate) -> StateVector:
    """One gate's unitary applied to a state vector."""
    return StateVector(state.num_qubits,
                       gate_unitary(gate, state.num_qubits) @ state.amplitudes)


def purity(rho) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def uncached_unitary(gate, num_qubits: int) -> np.ndarray:
    """A gate's unitary built afresh from `_embed` chains."""
    if gate.kind == "cu3":
        control, target = gate.qubits
        return _embed({control: _P0}, num_qubits) + _embed(
            {control: _P1, target: gate.matrix_2x2()}, num_qubits)
    return _embed({gate.qubits[-1]: gate.matrix_2x2()}, num_qubits)


def measured(state, setting: str, qubits=None) -> np.ndarray:
    """One state's outcome probabilities in one setting, from one-item lists."""
    return measure_in_basis([state], [setting], qubits)[0, 0]


def outer_product_depolarize(rho_mat, qubits, prob, num_qubits):
    """Depolarizing built by tracing each qubit out and putting I/2 back
    with np.multiply.outer and np.moveaxis."""
    if prob == 0.0:
        return rho_mat
    tensor = rho_mat.reshape([2] * (2 * num_qubits))
    for q in qubits:
        reduced = np.trace(tensor, axis1=q, axis2=q + num_qubits) / 2
        tensor = np.moveaxis(np.multiply.outer(_I2, reduced),
                             (0, 1), (q, q + num_qubits))
    return (1.0 - prob) * rho_mat + prob * tensor.reshape(rho_mat.shape)


def random_gates(rng, num_qubits: int, count: int) -> list:
    """X, U3 and CU3 gates on random qubits; some angles are signed zeros
    or multiples of pi/2, so exact zeros reach the simulated state."""
    def angle():
        return float(rng.choice([0.0, -0.0, PI / 2, PI, rng.uniform(-PI, PI)]))

    gates = []
    for _ in range(count):
        kind = rng.choice(["x", "u3", "cu3"] if num_qubits > 1 else ["x", "u3"])
        if kind == "x":
            gates.append(x(int(rng.integers(num_qubits))))
        elif kind == "u3":
            gates.append(u3(int(rng.integers(num_qubits)), angle(), angle(), angle()))
        else:
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append(cu3(int(control), int(target), angle(), angle(), angle()))
    return gates


class TestU3Matrix:
    def test_identity(self):
        np.testing.assert_allclose(u3_matrix(0, 0, 0), np.eye(2))

    def test_x_gate(self):
        np.testing.assert_allclose(u3_matrix(PI, 0, PI),
                                   [[0, 1], [1, 0]], atol=1e-15)

    def test_hadamard(self):
        np.testing.assert_allclose(u3_matrix(PI / 2, 0, PI),
                                   np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                                   atol=1e-15)

    def test_all_angles_pi_half(self):
        expected = np.array([[1, -1j], [1j, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(u3_matrix(PI / 2, PI / 2, PI / 2),
                                   expected, atol=1e-15)

    @pytest.mark.parametrize("angles", [(0.3, 1.1, -0.7), (PI / 3, 0, 0),
                                        (2.2, -1.4, 0.9)])
    def test_unitarity(self, angles):
        mat = u3_matrix(*angles)
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)


class TestGateValidation:
    @pytest.mark.parametrize("kind,qubits,angles,message", [
        ("h", (0,), (), "unknown gate kind 'h'"),
        ("u3", (0,), (math.inf, 0, 0), "u3 gate on qubits (0,): angles must be finite"),
        ("u3", (0,), (0, math.nan, 0), "u3 gate on qubits (0,): angles must be finite"),
        ("cu3", (0, 1), (0, 0, 10**400), "cu3 gate on qubits (0, 1): angles must be finite"),
        ("u3", [1], (0, 0), "u3 gate on qubits (1,): takes 3 angles, got 2"),
        ("x", (0,), (1.0,), "x gate on qubits (0,): takes 0 angles, got 1"),
        ("u3", (0, 1), (0, 0, 0), "u3 gate acts on 1 qubit(s)"),
        ("cu3", (1, 1), (0, 0, 0), "control and target must differ"),
        ("u3", (0,), ("a", 0, 0), "could not convert string to float"),
    ], ids=["kind", "inf", "nan", "huge-int", "two-angles", "x-angle", "qubits",
            "control", "text"])
    def test_rejected_with_the_same_message(self, kind, qubits, angles, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Gate(kind, qubits, angles)

    def test_angles_become_floats_and_qubits_a_tuple(self):
        gate = Gate("cu3", [0, 1], [1, np.float32(0.5), -0.0])
        assert gate.qubits == (0, 1)
        assert [type(a) for a in gate.angles] == [float] * 3
        assert math.copysign(1.0, gate.angles[2]) == -1.0


class TestGateApplication:
    def test_x_flips(self):
        state = apply_gate(StateVector.computational("0"), x(0))
        np.testing.assert_allclose(state.amplitudes, [0, 1])

    def test_controlled_x_fires(self):
        state = apply_gate(StateVector.computational("10"),
                           cu3(0, 1, PI, 0, PI))
        np.testing.assert_allclose(np.abs(state.amplitudes), [0, 0, 0, 1],
                                   atol=1e-14)

    def test_controlled_x_idle(self):
        state = apply_gate(StateVector.computational("00"),
                           cu3(0, 1, PI, 0, PI))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-14)

    def test_norm_preserved(self, rng):
        state = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5]))
        for gate in (u3(0, 0.7, 1.2, -0.3), cu3(1, 0, 2.2, 0.1, 0.4)):
            state = apply_gate(state, gate)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_every_gate_unitary(self):
        for gate in (x(1), u3(0, 0.4, 1.0, 2.0), cu3(2, 0, 1.1, 0.2, 0.3)):
            mat = gate_unitary(gate, 3)
            np.testing.assert_allclose(mat.conj().T @ mat, np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_embed_matches_kron_chain_bitwise(self, rng, num_qubits):
        for _ in range(5):
            slots = rng.choice(num_qubits, size=rng.integers(1, num_qubits + 1),
                               replace=False)
            ops = {int(q): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                   for q in slots}
            expected = np.array([[1.0 + 0j]])
            for q in range(num_qubits):
                expected = np.kron(expected, ops.get(q, _I2))
            assert np.array_equal(_embed(ops, num_qubits), expected)


class TestRunStatevector:
    def test_empty_circuit(self):
        state = run_statevector(Circuit(2))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_photon_input_prefix(self):
        # two NOT gates prepare |1100> on the first four of five qubits
        circuit = Circuit(5, [x(0), x(1)], ancilla=4)
        state = run_statevector(circuit)
        expected = StateVector.computational("11000")
        np.testing.assert_allclose(state.amplitudes, expected.amplitudes)

    def test_single_qubit_chain_matches_hand_product(self):
        circuit = Circuit(2, [u3(0, PI / 2, PI / 2, PI / 2), x(1),
                              cu3(1, 0, PI / 2, 0, 0)], ancilla=1)
        state = run_statevector(circuit)
        first = u3_matrix(PI / 2, PI / 2, PI / 2) @ np.array([1, 0])
        final = u3_matrix(PI / 2, 0, 0) @ first
        expected = np.kron(final, [0, 1])  # ancilla in |1>
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestRunDensityMatrix:
    def test_noiseless_equals_pure_projector(self):
        circuit = Circuit(2, [u3(0, PI / 2, PI / 2, PI / 2), x(1),
                              cu3(1, 0, PI / 2, 0, 0)], ancilla=1)
        rho = run_density_matrix(circuit)
        psi = run_statevector(circuit)
        np.testing.assert_allclose(rho.matrix, psi.density().matrix, atol=1e-10)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_full_depolarization(self):
        circuit = Circuit(1, [x(0)])
        rho = run_density_matrix(circuit, NoiseModel(depolarizing_prob_1q=1.0))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_partial_depolarization_reduces_purity(self):
        circuit = Circuit(2, [x(0), u3(1, PI / 2, PI / 2, PI / 2)])
        rho = run_density_matrix(circuit, NoiseModel(depolarizing_prob_1q=0.05))
        assert purity(rho) < 1.0

    def test_channel_matches_explicit_kraus_sum(self, rng):
        # depolarizing on one qubit == Kraus sum with weights
        # sqrt(1 - 3p/4) I and sqrt(p)/2 {X, Y, Z}
        from conftest import random_density

        p = 0.37
        rho = random_density(rng, 2)
        channel = depolarize(rho.matrix, [1], p, 2)
        kraus = [np.sqrt(1 - 3 * p / 4) * np.eye(2)]
        kraus += [np.sqrt(p) / 2 * PAULI_MATRICES[w] for w in "XYZ"]
        total = sum(
            np.kron(np.eye(2), k) @ rho.matrix @ np.kron(np.eye(2), k).conj().T
            for k in kraus
        )
        np.testing.assert_allclose(channel, total, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.7, 1.0])
    def test_depolarizing_trace_and_positivity(self, p, rng):
        from conftest import random_density

        rho = random_density(rng, 2)
        out = depolarize(rho.matrix, [0], p, 2)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_depolarize_matches_kron_construction_bitwise(self, rng,
                                                          num_qubits):
        """Oracle: trace the set out in its order, np.kron the mixed
        part in front and permute the qubits back."""
        from conftest import random_density

        def permute_qubits(matrix, order):
            perm = [order.index(q) for q in range(num_qubits)]
            tensor = matrix.reshape([2] * (2 * num_qubits))
            tensor = tensor.transpose(perm + [p + num_qubits for p in perm])
            return tensor.reshape(matrix.shape)

        def oracle(rho_mat, qubits, prob):
            rest = [q for q in range(num_qubits) if q not in qubits]
            tensor = rho_mat.reshape([2] * (2 * num_qubits))
            for offset, q in enumerate(qubits):
                axis = q - sum(1 for p in qubits[:offset] if p < q)
                tensor = np.trace(tensor, axis1=axis,
                                  axis2=axis + tensor.ndim // 2)
            reduced = (tensor.reshape(2 ** len(rest), 2 ** len(rest))
                       if rest else tensor)
            k = len(qubits)
            mixed = np.kron(np.eye(2**k) / 2**k, reduced)
            mixed = permute_qubits(mixed, qubits + rest)
            return (1.0 - prob) * rho_mat + prob * mixed

        sets = [[q] for q in range(num_qubits)]
        sets += [[a, b] for a in range(num_qubits)
                 for b in range(num_qubits) if a != b]
        for qubits in sets:
            rho = random_density(rng, num_qubits).matrix
            prob = float(rng.uniform(0.01, 1.0))
            assert np.array_equal(depolarize(rho, qubits, prob, num_qubits),
                                  oracle(rho, qubits, prob))

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_simulation_matches_uncached_construction_bytewise(self, num_qubits):
        """Both backends equal, byte for byte, a run that builds every
        gate afresh and depolarizes with outer products."""
        rng = np.random.default_rng(8000 + num_qubits)
        for _ in range(4):
            circuit = Circuit(num_qubits, random_gates(rng, num_qubits, 8))
            noise = NoiseModel(*rng.uniform(0.001, 0.2, size=3))
            amps = np.zeros(2**num_qubits, dtype=complex)
            amps[0] = 1.0
            rho = np.outer(amps, amps)
            for gate in circuit.gates:
                unitary = uncached_unitary(gate, num_qubits)
                amps = unitary @ amps
                rho = unitary @ rho @ unitary.conj().T
                prob = (noise.depolarizing_prob_2q if gate.kind == "cu3"
                        else noise.depolarizing_prob_1q)
                rho = outer_product_depolarize(rho, gate.qubits, prob, num_qubits)
            for q in range(num_qubits):
                rho = outer_product_depolarize(rho, [q], 2 * noise.readout_flip_prob,
                                               num_qubits)
            rho = (rho + rho.conj().T) / 2
            assert run_statevector(circuit).amplitudes.tobytes() == amps.tobytes()
            assert run_density_matrix(circuit, noise).matrix.tobytes() == rho.tobytes()


class TestMeasureInBasis:
    def test_z_on_zero(self):
        # One state in one setting is still a states x settings x outcomes array.
        probs = measure_in_basis([StateVector.computational("0")], ["Z"])
        assert isinstance(probs, np.ndarray) and probs.dtype == float
        assert probs.tolist() == [[[1.0, 0.0]]]

    def test_x_on_zero_is_uniform(self):
        probs = measured(StateVector.computational("0"), "X")
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_y_eigenstate_deterministic(self):
        plus_i = StateVector(1, np.array([1, 1j]) / np.sqrt(2))
        probs = measured(plus_i, "Y")
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_plus_in_x_deterministic(self):
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        probs = measured(plus, "X")
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_rotation_consistency(self):
        # measuring an X-rotated state in Z equals measuring original in X
        circuit = Circuit(1, [u3(0, 0.8, 0.0, 0.0)])
        state = run_statevector(circuit)
        rotated = apply_gate(state, u3(0, PI / 2, 0, PI))  # Hadamard
        np.testing.assert_allclose(
            measured(state, "X"), measured(rotated, "Z"), atol=1e-12)

    def test_marginalization_and_order(self):
        # Every qubit is read out, so nothing is marginalized.  The first
        # qubit read is the most significant bit: qubit 1 reads 0 and
        # qubit 0 reads 1, outcome "01" at index 1.
        state = StateVector.computational("10")
        probs = measure_in_basis([state], ["ZZ"], [1, 0])
        assert probs.shape == (1, 1, 4) and probs[0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert measured(state, "ZZ").tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_invalid_basis_letter(self):
        with pytest.raises(ValueError, match="setting 'Q' is not 1 letters from X, Y, Z"):
            measured(StateVector.computational("0"), "Q")

    # A readout names every qubit once, as an integer: [1] skips qubit 0.
    @pytest.mark.parametrize("qubits", [[0, 0], [1, 0, 1], [7, 0], [-1, 0], [2], [1],
                                        [0.0, 1], [True, 0]], ids=str)
    @pytest.mark.parametrize("mixed", [False, True], ids=["vector", "density"])
    def test_qubits_must_be_distinct_and_in_range(self, qubits, mixed):
        state = StateVector.computational("01")
        state = state.density() if mixed else state
        message = rf"cannot measure qubits \[{', '.join(map(str, qubits))}\]"
        with pytest.raises(ValueError, match=message):
            measured(state, "Z" * len(qubits), qubits)

    @pytest.mark.parametrize("settings", [["Z"], ["Z", "X", "Y"]], ids=["one", "stack"])
    def test_negative_probability_rejected_before_clipping(self, rng, settings):
        state = DensityMatrix(1, np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match=r"outcome probability -0\.5, below -1e-09"):
            measure_in_basis([state], settings)
        with pytest.raises(ValueError, match="below"):
            measure_in_basis([random_density(rng, 1), state], settings)

    def test_small_negatives_set_to_zero(self):
        probs = measured(DensityMatrix(1, np.diag([1 + PROB_ATOL / 2, -PROB_ATOL / 2])), "Z")
        assert probs.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("matrix", [np.zeros((2, 2)), np.diag([1e308, 1e308])],
                             ids=["zero", "overflow"])
    def test_sum_must_be_finite_and_positive(self, matrix):
        # Under filterwarnings = error a numpy warning from the division
        # would be raised instead of the function's own error.
        state = DensityMatrix(1, matrix)
        with pytest.raises(ValueError, match="finite, positive sum"):
            measured(state, "Z")


class TestSampling:
    def test_deterministic_outcome(self):
        probs = measure_in_basis([StateVector.computational("0")], ["Z"])[0]
        table = sample_shots(probs, 100, [1], ["Z"])
        assert table.settings == ("Z",) and table.counts.tolist() == [[100, 0]]

    def test_same_seed_same_table(self):
        probs = measure_in_basis([StateVector.computational("0")], ["X"])[0]
        a = sample_shots(probs, 5000, [42], ["X"])
        b = sample_shots(probs, 5000, [42], ["X"])
        assert a == b

    def test_large_sample_frequency(self):
        probs = measure_in_basis([StateVector.computational("0")], ["X"])[0]
        table = sample_shots(probs, 10**6, [7], ["X"])
        assert abs(table.counts[0, 0] / 10**6 - 0.5) < 0.002

    def test_sampling_converges_in_tvd(self):
        circuit = Circuit(2, [u3(0, 1.0, 0.3, 0.2), cu3(0, 1, 2.0, 0.0, 0.0)])
        probs = measure_in_basis([run_statevector(circuit)], ["ZZ"])[0]
        table = sample_shots(probs, 10**6, [5], ["ZZ"])
        tvd = 0.5 * np.abs(table.counts[0] / table.shots - probs[0]).sum()
        assert tvd <= 0.005

    def test_shot_count_validation(self):
        probs = measure_in_basis([StateVector.computational("0")], ["Z"])[0]
        with pytest.raises(ValueError, match="shots"):
            sample_shots(probs, 0, [0], ["Z"])

    def test_postselect(self):
        # Post-selection keeps the shots whose bit reads 1.
        table = shot_table("XZ", {"01": 30, "11": 20, "00": 50})
        kept = table.postselect(1)
        assert kept == shot_table("X", {"0": 30, "1": 20}) and kept.shots == 50
        assert table.postselect(0) == shot_table("Z", {"1": 20})

    @pytest.mark.parametrize("bit", [-1, 2, 5, 0.5, 1.0, True])
    def test_postselect_rejects_bit(self, bit):
        table = shot_table("XZ", {"01": 30, "11": 20, "00": 50})
        with pytest.raises(ValueError, match=r"cannot post-select bit .*: need a bit "
                                             r"in \[0, 2\)"):
            table.postselect(bit)

    # Only a 2-D stack is valid input: its rows are the 2^k probabilities.
    @pytest.mark.parametrize("probs", [[[1, 0, 0]], [[0.5] * 6], [], [[[0.5, 0.5]]],
                                       [[1, 0, 0]] * 2, np.zeros((0, 2)), 1.0],
                             ids=["3", "6", "empty", "3d", "rows-of-3", "no-rows",
                                  "scalar"])
    def test_outcome_count_must_be_a_power_of_two(self, probs):
        with pytest.raises(ValueError, match="need a k x 2\\^w stack of outcome probabilities"):
            sample_shots(probs, 10, [0], ["Z"])

    @pytest.mark.parametrize("probs", [[0, 0], [0.5, np.nan], [1, np.inf],
                                       [-1, 0.5]], ids=["zero", "nan", "inf", "negative"])
    def test_probability_sum_must_be_finite_and_positive(self, probs):
        # pytest turns warnings into errors, so a divide warning would fail first.
        with pytest.raises(ValueError, match="finite, positive sum"):
            sample_shots([probs], 10, [0], ["Z"])

    def test_overflowing_sum_rejected(self):
        # Finite entries whose sum overflows: no overflow warning first.
        with pytest.raises(ValueError, match="finite, positive sum"):
            sample_shots([[1e308, 1e308]], 10, [0], ["Z"])

    def test_negative_entry_with_positive_sum_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            sample_shots([[0.5, -0.5, 1, 0]], 10, [0], ["ZZ"])

    @pytest.mark.parametrize("shots", [10.5, True, "10", None], ids=str)
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_shots([[0.5, 0.5]], shots, [0], ["Z"])

    def test_shots_must_fit_int64(self):
        message = re.escape(f"shots must be in [1, {2**63 - 1}]")
        with pytest.raises(ValueError, match=message):
            sample_shots([[0.5, 0.5]], 2**63, [0], ["Z"])
        # Across a stack the table's total must fit too.
        message = re.escape(f"shots must be in [1, {(2**63 - 1) // 2}]")
        with pytest.raises(ValueError, match=message):
            sample_shots([[0.5, 0.5]] * 2, 2**62, [0, 1], ["Z", "Z"])

    def test_bad_row_of_a_stack_rejected(self):
        with pytest.raises(ValueError, match="finite, positive sum"):
            sample_shots([[0.5, 0.5], [0.0, 0.0]], 10, [0, 1], ["Z", "Z"])

    @pytest.mark.parametrize("seed", [0, [0], (0, 1, 2), np.random.default_rng(0)],
                             ids=["int", "too-few", "too-many", "generator"])
    def test_stack_needs_one_seed_per_row(self, seed):
        with pytest.raises(ValueError, match="need a list of 2 seeds, one per row"):
            sample_shots([[0.5, 0.5]] * 2, 10, seed, ["Z", "Z"])

    def test_removed_forms_rejected(self):
        """A vector with one seed, a string of settings and no settings
        were once accepted; each is now an error."""
        with pytest.raises(ValueError, match="need a k x 2\\^w stack"):
            sample_shots([0.5, 0.5], 10, 0, "Z")
        # Two one-letter settings must not pass as the string "XZ".
        with pytest.raises(ValueError, match="need a list of settings, got a str"):
            sample_shots([[0.5, 0.5]] * 2, 10, [0, 1], "XZ")
        with pytest.raises(ValueError, match="need a list of settings, got a NoneType"):
            sample_shots([[0.5, 0.5]], 10, [0], None)
        with pytest.raises(TypeError, match="settings"):
            sample_shots([[0.5, 0.5]], 10, [0])

    @pytest.mark.parametrize("width", range(4))
    def test_stack_rows_match_single_draws(self, rng, width):
        """Each row of a stacked draw is that row drawn alone with its seed."""
        settings = distinct_settings(rng, width, 5)
        probs = rng.dirichlet(np.full(2**width, 0.5), size=len(settings))
        seeds = np.random.SeedSequence(11).spawn(len(probs))
        table = sample_shots(probs, 300, seeds, settings)
        assert table.settings == tuple(settings) and table.shots == len(settings) * 300
        for row, p, seed, setting in zip(table.counts, probs, seeds, settings):
            assert sample_shots(p[None], 300, [seed], [setting]) \
                == ShotTable([setting], row[None])

    def test_generator_seed_used_as_is(self):
        probs = measure_in_basis([StateVector.computational("0")], ["X"])[0]
        rng = np.random.default_rng(3)
        first = sample_shots(probs, 1000, [rng], ["X"])
        assert first == sample_shots(probs, 1000, [3], ["X"])
        # The Generator's state advanced, so a second draw from it differs.
        assert sample_shots(probs, 1000, [rng], ["X"]) != first


def _postselect_by_loop(table, bit):
    """The dict loop that post-selection used before count vectors, on a
    one-row table: the setting and counts of the shots whose bit reads 1."""
    kept = {}
    for bits, count in counts(table).items():
        if bits[bit] == "1":
            reduced = bits[:bit] + bits[bit + 1:]
            kept[reduced] = kept.get(reduced, 0) + count
    (setting,) = table.settings
    return setting[:bit] + setting[bit + 1:], kept


def distinct_settings(rng, width, count, bit=None):
    """Up to `count` distinct settings of `width` letters in random order.
    With `bit`, they stay distinct with that letter dropped, as after
    post-selecting it, and the letter at `bit` is drawn at random."""
    rest = width - (bit is not None)
    pool = ["".join(s) for s in itertools.product("XYZ", repeat=rest)]
    picked = [pool[i] for i in rng.permutation(len(pool))[:count]]
    if bit is None:
        return picked
    return [s[:bit] + rng.choice(list("XYZ")) + s[bit:] for s in picked]


def _random_draws(rng, width, shots=500):
    """Multinomial counts over 2^width outcomes, many of them zero."""
    probs = rng.dirichlet(np.full(2**width, 0.3))
    return rng.multinomial(shots, probs)


class TestShotTable:
    @pytest.mark.parametrize("width", range(1, 6))
    def test_counts_view_matches_dict_of_draws(self, rng, width):
        for _ in range(20):
            draws = _random_draws(rng, width)
            table = ShotTable(["Z" * width], draws[None])
            expected = {bits: int(c) for bits, c in zip(outcome_labels(width), draws)
                        if c > 0}
            assert dict(counts(table)) == expected
            assert list(counts(table)) == list(expected)
            assert all(type(c) is int for c in counts(table).values())

    def test_vector_and_counts_are_read_only(self, rng):
        draws = _random_draws(rng, 2)[None]
        table = ShotTable(["XY"], draws)
        with pytest.raises(ValueError):
            table.counts[0, 0] = 1
        with pytest.raises(TypeError):
            counts(table)["00"] = 1
        # The table owns the draws it was given: no copy, no writer left.
        assert table.counts is draws and not draws.flags.writeable
        assert shot_table("XY", counts(table)) == table
        stack = np.concatenate([draws, draws])
        table = ShotTable(("XY", "ZZ"), stack)
        assert table.counts is stack and not stack.flags.writeable

    @pytest.mark.parametrize("width", range(1, 6))
    def test_postselect_matches_dict_loop(self, rng, width):
        setting = "".join(rng.choice(list("XYZ"), size=width))
        table = ShotTable([setting], _random_draws(rng, width)[None])
        for bit in range(width):
            kept = table.postselect(bit)
            assert kept == shot_table(*_postselect_by_loop(table, bit))
            assert (kept.settings[0], dict(counts(kept))) == _postselect_by_loop(table, bit)

    @pytest.mark.parametrize("width", range(1, 6))
    def test_postselect_slices_every_row(self, rng, width):
        """A stack post-selects as its rows do one by one."""
        for bit in range(width):
            settings = distinct_settings(rng, width, 6, bit)
            rows = [ShotTable([one], _random_draws(rng, width)[None]) for one in settings]
            stack = ShotTable(settings, np.concatenate([r.counts for r in rows]))
            kept = [r.postselect(bit) for r in rows]
            assert stack.postselect(bit) == ShotTable(
                [k.settings[0] for k in kept], np.concatenate([k.counts for k in kept]))

    def test_total_must_match_shots(self, rng):
        """`shots` is derived: the exact total of a drawn, a stacked and a
        post-selected table, and no caller declares it."""
        drawn = sample_shots(rng.dirichlet(np.ones(4), size=3), 1000, [1, 2, 3],
                             ["XZ", "YZ", "ZZ"])
        assert drawn.shots == 3000 == int(drawn.counts.sum())
        stack = ShotTable(drawn.settings, np.stack([drawn.counts, 2 * drawn.counts]))
        assert stack.shots == 9000
        kept = stack.postselect(1)
        assert kept.shots == int(drawn.counts[:, 1::2].sum()) * 3
        big = ShotTable(("X", "Y"), [[2**62, 0], [2**62 - 1, 0]])
        assert big.shots == 2**63 - 1 and type(big.shots) is int
        with pytest.raises(TypeError):
            ShotTable(["Z"], [[3, 4]], 7)

    @pytest.mark.parametrize("rows", [
        [[2**62, 2**62]],  # the int64 sum wraps to -2^63
        [[2**62, 2**62]] * 2,  # and this one to 0
        [[2**63 - 1, 1]],
    ], ids=["wraps-negative", "wraps-to-zero", "one-past"])
    def test_total_is_exact_and_fits_int64(self, rows):
        with pytest.raises(ValueError, match="with a total below 2\\^63"):
            ShotTable(("X", "Y")[:len(rows)], rows)

    def test_largest_total_is_accepted(self):
        table = ShotTable(("XZ", "YY"), [[2**62, 2**62 - 1, 0, 0], [0] * 4])
        assert table.shots == 2**63 - 1
        assert table.postselect(0).shots == 0 and table.postselect(1).shots == 2**62 - 1

    def test_vector_length_must_match_setting(self):
        with pytest.raises(ValueError, match="'XZ' needs 4 counts"):
            ShotTable(["XZ"], np.array([[1, 2]]))
        # Settings take a matrix with a row per setting, never a vector.
        with pytest.raises(ValueError, match="'XZ' needs 4 counts"):
            ShotTable(["XZ"], np.ones(4))
        with pytest.raises(ValueError, match="'XZ' needs 4 counts"):
            ShotTable(("XZ", "YY"), np.ones(4))
        with pytest.raises(ValueError, match="'XZ' needs 4 counts"):
            ShotTable(("XZ", "YY"), np.ones((3, 4)))

    def test_string_settings_rejected(self):
        # As a sequence, "XZ" would be two one-letter settings.
        for settings in ("XZ", "X", None, 3):
            with pytest.raises(ValueError, match="need a list of settings"):
                ShotTable(settings, [[1, 1], [1, 1]])

    @pytest.mark.parametrize("settings", [[0], ["X", 5], [b"X"], ["X", None], [5], [None],
                                          [["X"]]], ids=str)
    def test_setting_items_must_be_strings(self, settings):
        """ShotTable and measure_in_basis check settings by one rule."""
        bad = next(s for s in settings if not isinstance(s, str))
        message = f"setting {bad!r} is not a string of letters from X, Y, Z"
        with pytest.raises(ValueError, match=re.escape(message)):
            ShotTable(settings, np.ones((len(settings), 2), dtype=int))
        with pytest.raises(ValueError, match=re.escape(message)):
            measure_in_basis([StateVector.computational("0")], settings)

    @pytest.mark.parametrize("settings", [("X", "X"), ("XZ", "YY", "XZ"),
                                          ("Z", "Y", "X", "Y")], ids=str)
    def test_repeated_setting_rejected(self, settings):
        bad = next(s for i, s in enumerate(settings) if s in settings[:i])
        with pytest.raises(ValueError, match=f"setting '{bad}' has more than one row"):
            ShotTable(settings, np.ones((len(settings), 2 ** len(bad)), dtype=int))

    @pytest.mark.parametrize("width", range(0, 4))
    def test_stack_of_circuit_tables(self, rng, width):
        """A c x k x 2^w stack holds c circuits' tables over one list of
        settings, and `shots` totals all of them."""
        settings = ("X" * width, "Z" * width)[:1 + (width > 0)]  # one row per setting
        draws = np.stack([np.stack([_random_draws(rng, width) for _ in settings])
                          for _ in range(3)])
        table = ShotTable(settings, draws)
        assert table.counts is draws and not draws.flags.writeable
        assert table.shots == 500 * draws[:, :, 0].size
        assert table == ShotTable(list(settings), draws.copy())
        assert table != ShotTable(settings, draws[0])
        for bad in (np.concatenate([draws, draws], axis=1), draws[..., 1:], draws[None],
                    draws[:0]):
            with pytest.raises(ValueError, match=f"needs {2**width} counts per row"):
                ShotTable(settings, bad)

    @pytest.mark.parametrize("width", range(1, 6))
    def test_postselect_on_stack_matches_each_table(self, rng, width):
        for bit in range(width):
            settings = distinct_settings(rng, width, 4, bit)
            tables = [ShotTable(settings, np.stack([_random_draws(rng, width)
                                                    for _ in settings])) for _ in range(3)]
            stack = ShotTable(settings, np.stack([t.counts for t in tables]))
            kept = [t.postselect(bit) for t in tables]
            assert stack.postselect(bit) == ShotTable(
                kept[0].settings, np.stack([k.counts for k in kept]))

    # Counts must be integers: floats, bools and strings are not truncated
    # or parsed, and a uint64 count past int64 is not wrapped.
    @pytest.mark.parametrize("vector", [[-1, 7], [7, -1], [-(2**62), 2**62 + 6],
                                        [1.5, 0.5], [True, False], ["3", "4"], [1e20, 0],
                                        np.array([2**63, 0], dtype=np.uint64),
                                        np.array([2**64 - 1, 7], dtype=np.uint64)],
                             ids=str)
    def test_negative_counts_rejected(self, vector):
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            ShotTable(["X"], [vector])
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            ShotTable(("X", "Y", "Z"), [vector] * 3)

    @pytest.mark.parametrize("setting", ["Q", "x", "I", "Z ", "XQ"])
    def test_setting_letters_must_be_xyz(self, setting):
        message = f"setting {setting!r} is not {len(setting)} letters from X, Y, Z"
        with pytest.raises(ValueError, match=re.escape(message)):
            ShotTable([setting], np.ones((1, 2**len(setting)), dtype=int))
        with pytest.raises(ValueError, match=re.escape(message)):
            ShotTable(("X" * len(setting), setting), np.ones((2, 2**len(setting)), dtype=int))

    @pytest.mark.parametrize("settings", [("X", "ZZ"), ("XY", "Z"), ("XY", ""),
                                          ("Z", "Y", "XZ")], ids=str)
    def test_settings_of_mixed_width_rejected(self, settings):
        bad = next(s for s in settings if len(s) != len(settings[0]))
        message = f"setting {bad!r} is not {len(settings[0])} letters from X, Y, Z"
        with pytest.raises(ValueError, match=re.escape(message)):
            ShotTable(settings, np.ones((len(settings), 2), dtype=int))

    @pytest.mark.parametrize("settings", [(), []], ids=["tuple", "list"])
    def test_empty_stack_rejected(self, settings):
        with pytest.raises(ValueError, match="at least one setting"):
            ShotTable(settings, np.zeros((0, 2), dtype=np.int64))


def rng_states(generators):
    """The bit-generator states of a list of Generators, for comparison."""
    return [gen.bit_generator.state for gen in generators]


def _spawned_reference(make, advanced, count):
    """numpy's own children of a fresh parent: default_rng of each spawn."""
    parent = make()
    parent.spawn(advanced)
    return [np.random.default_rng(child) for child in parent.spawn(count)]


class TestSpawnGenerators:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entropy=st.one_of(st.integers(0, 2**16), st.integers(2**64, 2**200),
                             st.lists(st.integers(0, 2**40), max_size=10)),
           spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
           pool_size=st.sampled_from([4, 8]),
           advanced=st.integers(0, 5),
           count=st.sampled_from([1, 3, 9, 81]))
    @example(entropy=7, spawn_key=[], pool_size=4, advanced=0, count=1)
    @example(entropy=2**200 + 3, spawn_key=[], pool_size=4, advanced=0, count=3)
    @example(entropy=[1, 2**32, 5], spawn_key=[], pool_size=8, advanced=0, count=9)
    @example(entropy=5, spawn_key=[2**32, 2**40 - 1], pool_size=4, advanced=0, count=81)
    @example(entropy=[9] * 12, spawn_key=[3], pool_size=8, advanced=4, count=81)
    def test_matches_spawn_and_default_rng(self, entropy, spawn_key, pool_size,
                                           advanced, count):
        def make():
            return np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key),
                                          pool_size=pool_size)
        parent = make()
        parent.spawn(advanced)
        (got,) = spawn_generators([parent], [count])
        want = _spawned_reference(make, advanced, count)
        assert len(got) == count
        for mine, theirs in zip(got, want):
            assert mine.bit_generator.state == theirs.bit_generator.state
            np.testing.assert_array_equal(mine.multinomial(1000, [0.1, 0.2, 0.3, 0.4]),
                                          theirs.multinomial(1000, [0.1, 0.2, 0.3, 0.4]))
        # Unlike spawn, the helper leaves its parent where it was.
        assert parent.n_children_spawned == advanced
        # One pass over several seeds, whose spawn keys differ in length and
        # which have spawned before, gives each seed's own list.
        other = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key) + (3, 2**33),
                                       pool_size=pool_size)
        other.spawn(2)
        seeds, counts = [parent, other, 11, parent], [count, 3, 1, 2]
        batch = list(spawn_generators(seeds, counts))
        assert [len(gens) for gens in batch] == counts
        for one, n, gens in zip(seeds, counts, batch):
            assert rng_states(gens) == rng_states(next(spawn_generators([one], [n])))
        assert rng_states(batch[0]) == rng_states(_spawned_reference(make, advanced, count))
        assert (parent.n_children_spawned, other.n_children_spawned) == (advanced, 2)

    def test_int_and_seed_sequence_seeds_and_no_seeds(self):
        batch = list(spawn_generators((4, np.random.SeedSequence(4)), (5, 5)))
        want = [np.random.default_rng(c) for c in np.random.SeedSequence(4).spawn(5)]
        assert rng_states(batch[0]) == rng_states(batch[1]) == rng_states(want)
        assert list(spawn_generators([], [])) == []


class TestBasisRotationCache:
    @pytest.mark.parametrize("setting,qubits,num_qubits", [
        ("X", (0,), 1), ("YZ", (1, 0), 3), ("XYZZ", (0, 1, 2, 4), 5),
    ])
    def test_cached_rotation_is_read_only_embed(self, setting, qubits, num_qubits):
        settings = (setting, setting[::-1], "Z" * len(setting))
        stack = _rotation_stack(settings, qubits, num_qubits)
        for rot, one in zip(stack, settings):
            expected = _embed({q: BASIS_ROTATIONS[letter]
                               for q, letter in zip(qubits, one)}, num_qubits)
            assert rot.tobytes() == expected.tobytes()
        assert not stack.flags.writeable
        assert _rotation_stack(settings, qubits, num_qubits) is stack

    def test_cache_is_bounded(self):
        # 16 entries of at most 9 rotations of 64 KiB (9 MiB) stay within
        # the 256 x 64 KiB that the per-setting cache allowed.
        assert _rotation_stack.cache_info().maxsize == 16
        for setting in itertools.product("XYZ", repeat=3):
            measured(StateVector.computational("000"), "".join(setting))
        assert _rotation_stack.cache_info().currsize == 16


def measure_one(state, setting, qubits):
    """The per-setting measurement the stacked rows must reproduce bytewise,
    outcomes in the caller's qubit order, clipped and normalized.  A state
    vector takes its embedded rotation; a density matrix takes its Pauli
    expectations from the frame, the 2^n strings that keep a subset of the
    setting's letters in qubit order, and their Walsh sum."""
    n = state.num_qubits
    if isinstance(state, StateVector):
        rot = _embed({q: BASIS_ROTATIONS[letter] for q, letter in zip(qubits, setting)}, n)
        full = np.abs(rot @ state.amplitudes) ** 2
    else:
        _, phase, lift, walsh, hits, index, _ = _pauli_frame(n)
        expect = (phase * (state.matrix.T.take(lift) @ walsh).ravel()).real
        natural = "".join(setting[list(qubits).index(q)] for q in range(n))
        full = (expect[hits[index[natural]]][None, :] @ (walsh / 2**n))[0]
    probs = full.reshape([2] * n).transpose(qubits).reshape(-1)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


def textbook(state, setting, qubits):
    """diag(R rho R^dagger) for the setting's embedded rotation R, outcomes
    in the caller's qubit order, neither clipped nor normalized."""
    n = state.num_qubits
    rot = _embed({q: BASIS_ROTATIONS[letter] for q, letter in zip(qubits, setting)}, n)
    full = np.real(np.diag(rot @ state.matrix @ rot.conj().T))
    return full.reshape([2] * n).transpose(qubits).reshape(-1)


def readouts(num_qubits):
    """Every qubit in order; qubits 1.. then 0, as an ancilla at index 0
    is read last; and a shuffled order."""
    rng = np.random.default_rng(num_qubits)
    yield tuple(range(num_qubits))
    if num_qubits > 1:
        yield tuple(range(1, num_qubits)) + (0,)
        yield tuple(rng.permutation(num_qubits).tolist())


def some_settings(width):
    """Every setting of `width` letters, or 81 spread over them past 4."""
    settings = ["".join(s) for s in itertools.product("XYZ", repeat=width)]
    return settings[::3 ** max(0, width - 4)]


class TestStackedMeasurement:
    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_rows_match_per_setting_formula_bytewise(self, rng, num_qubits):
        gates = [u3(q, 0.3 + q, 0.2, -0.4) for q in range(num_qubits)]
        gates += [cu3(0, q, 1.1, 0.5, 0.0) for q in range(1, num_qubits)]
        noisy = run_density_matrix(Circuit(num_qubits, gates), NoiseModel(0.01, 0.02, 0.03))
        states = (random_pure(rng, num_qubits), random_density(rng, num_qubits), noisy)
        for qubits in readouts(num_qubits):
            settings = some_settings(num_qubits)
            for state in states:
                (probs,) = measure_in_basis([state], settings, qubits)
                assert probs.shape == (len(settings), 2 ** len(qubits))
                for setting, row in zip(settings, probs):
                    assert row.tobytes() == measure_one(state, setting, qubits).tobytes()

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_density_rows_match_textbook_diagonal(self, rng, num_qubits):
        # Pure, random mixed, fully noisy and partly noisy states: the noise
        # models with a zero rate are those whose seeded counts moved.
        gates = [u3(q, 0.3 + q, 0.2, -0.4) for q in range(num_qubits)] + [x(0)]
        gates += [cu3(0, q, PI / 2, 0.5, 0.0) for q in range(1, num_qubits)]
        circuit = Circuit(num_qubits, gates)
        states = [random_pure(rng, num_qubits).density(), random_density(rng, num_qubits)]
        states += [run_density_matrix(circuit, noise) for noise in (
            NoiseModel(0.01, 0.02, 0.03), NoiseModel(0.01), NoiseModel(0.3, 0.3))]
        for qubits in readouts(num_qubits):
            settings = some_settings(num_qubits)
            for state, probs in zip(states, measure_in_basis(states, settings, qubits)):
                for setting, row in zip(settings, probs):
                    np.testing.assert_allclose(row, textbook(state, setting, qubits),
                                               rtol=0, atol=1e-15)

    @pytest.mark.parametrize("width", [3, 4])
    def test_stacks_spanning_several_blocks(self, rng, width):
        # 27 and 81 density-matrix settings, ancilla at index 0 read last.
        state = run_density_matrix(
            Circuit(width + 1, [x(0)] + [cu3(0, q, 0.7 * q, 0.1, 0.2)
                                         for q in range(1, width + 1)], ancilla=0),
            NoiseModel(0.02, 0.04, 0.01))
        qubits = tuple(range(1, width + 1)) + (0,)
        settings = ["".join(s) + "Z" for s in itertools.product("XYZ", repeat=width)]
        (probs,) = measure_in_basis([state], settings, qubits)
        assert len(probs) == 3**width
        for setting, row in zip(settings, probs):
            assert row.tobytes() == measure_one(state, setting, qubits).tobytes()
            single = measure_in_basis([state], [setting], qubits)
            assert single.shape == (1, 1, len(row)) and single.tobytes() == row.tobytes()

    @pytest.mark.parametrize("num_qubits", range(1, 6))
    @pytest.mark.parametrize("mixed", [False, True], ids=["vector", "density"])
    def test_list_of_states_matches_per_state_calls(self, rng, num_qubits, mixed):
        make = random_density if mixed else random_pure
        states = [make(rng, num_qubits) for _ in range(3)]
        for qubits in readouts(num_qubits):
            settings = some_settings(num_qubits)
            for setting in (settings, settings[-1:]):
                stacked = measure_in_basis(states, setting, qubits)
                assert isinstance(stacked, np.ndarray) and len(stacked) == len(states)
                for state, probs in zip(states, stacked):
                    (alone,) = measure_in_basis([state], setting, qubits)
                    assert probs.shape == alone.shape
                    assert probs.tobytes() == alone.tobytes()
        # Tuples work the same, and one state and one setting keep their axes.
        one = ("Z" * num_qubits,)
        assert measure_in_basis(tuple(states), one).shape == (3, 1, 2**num_qubits)
        assert measure_in_basis(states[:1], list(one)).shape == (1, 1, 2**num_qubits)

    def test_list_of_states_must_share_kind_and_size(self, rng):
        pure, mixed = random_pure(rng, 2), random_density(rng, 2)
        with pytest.raises(ValueError, match="all of one kind and size"):
            measure_in_basis([pure, mixed], ["ZZ"])
        with pytest.raises(ValueError, match="all of one kind and size"):
            measure_in_basis([pure, random_pure(rng, 3)], ["ZZ"], [0, 1])
        with pytest.raises(ValueError, match="all of one kind and size"):
            measure_in_basis([], ["Z"])
        with pytest.raises(TypeError, match="cannot measure a ndarray"):
            measure_in_basis([pure, pure.amplitudes], ["ZZ"])

    @pytest.mark.parametrize("states, settings, expected", [
        (StateVector.computational("00"), ["ZZ"], "states, got a StateVector"),
        (StateVector.computational("00").density(), ["ZZ"], "states, got a DensityMatrix"),
        (np.array([1.0, 0, 0, 0]), ["ZZ"], "states, got a ndarray"),
        ([StateVector.computational("00")], "ZZ", "settings, got a str"),
        ([StateVector.computational("00")], iter(["ZZ"]), "settings, got a list_iterator"),
    ], ids=["vector", "density", "array", "string", "iterator"])
    def test_one_state_or_setting_must_come_as_a_list(self, states, settings, expected):
        # A string of letters would otherwise pass as one-letter settings.
        with pytest.raises(ValueError, match=f"^need a list of {expected}$"):
            measure_in_basis(states, settings)

    def test_every_setting_of_a_stack_is_checked(self):
        state = StateVector.computational("00")
        with pytest.raises(ValueError, match="'XYZ' is not 2 letters from X, Y, Z"):
            measure_in_basis([state], ["XY", "XYZ"])
        with pytest.raises(ValueError, match="'QZ' is not 2 letters from X, Y, Z"):
            measure_in_basis([state], ["XY", "QZ"])
        with pytest.raises(ValueError, match="need at least one setting"):
            measure_in_basis([state], [])


class TestDensityStacks:
    """A density matrix's rows come from one product per state and one per
    setting of a whole call, so any run of settings, and any state among
    others, must still give each setting's own bytes."""

    QUBITS = (1, 3, 0, 2)
    SETTINGS = ["".join(s) for s in itertools.product("XYZ", repeat=4)]

    @pytest.fixture
    def state(self):
        gates = [u3(q, 0.4 + q, -0.3, 0.9) for q in range(4)]
        gates += [cu3(q, q + 1, 1.3, 0.2, -0.5) for q in range(3)]
        return run_density_matrix(Circuit(4, gates), NoiseModel(0.01, 0.03, 0.02))

    @pytest.mark.parametrize("count", [1, 10, 20])
    def test_any_run_of_settings_matches_single_calls(self, state, count):
        before = state.matrix.tobytes()
        settings = self.SETTINGS[-count:]
        (probs,) = measure_in_basis([state], settings, self.QUBITS)
        assert probs.shape == (count, 16)
        for setting, row in zip(settings, probs):
            assert row.tobytes() == measure_one(state, setting, self.QUBITS).tobytes()
            single = measured(state, setting, self.QUBITS)
            assert single.tobytes() == row.tobytes()
        assert state.matrix.tobytes() == before

    def test_stacked_states_match_each_state_alone(self, rng, state):
        # A partly noisy state, whose exact zeros and halves are clipped
        # and normalized, between a mixed and a pure one.
        partly = run_density_matrix(Circuit(4, [x(0), cu3(0, 2, PI / 2, 0, 0)]),
                                    NoiseModel(0.01))
        states = [random_density(rng, 4), partly, random_pure(rng, 4).density(), state]
        stacked = measure_in_basis(states, self.SETTINGS, self.QUBITS)
        assert stacked.shape == (4, 81, 16)
        for one, probs in zip(states, stacked):
            assert probs.tobytes() == measure_in_basis([one], self.SETTINGS,
                                                       self.QUBITS)[0].tobytes()
            for setting, row in zip(self.SETTINGS[::8], probs[::8]):
                assert row.tobytes() == measure_one(one, setting, self.QUBITS).tobytes()


class TestGateUnitaryCache:
    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_cached_unitary_is_read_only_embed(self, rng, num_qubits):
        gates = [x(num_qubits - 1), u3(0, *rng.uniform(-PI, PI, size=3))]
        if num_qubits > 1:
            gates.append(cu3(num_qubits - 1, 0, *rng.uniform(-PI, PI, size=3)))
        for gate in gates:
            mat = gate_unitary(gate, num_qubits)
            assert not mat.flags.writeable
            assert mat.tobytes() == uncached_unitary(gate, num_qubits).tobytes()
            assert gate_unitary(gate, num_qubits) is mat

    def test_signed_zero_angles_get_their_own_entries(self):
        plus, minus = u3(0, 0.0, 0.0, 0.0), u3(0, -0.0, 0.0, 0.0)
        assert plus == minus  # Gate equality cannot tell the two apart
        for gate in (plus, minus):
            assert (gate_unitary(gate, 2).tobytes()
                    == uncached_unitary(gate, 2).tobytes())
        assert gate_unitary(plus, 2).tobytes() != gate_unitary(minus, 2).tobytes()

    def test_cache_is_bounded(self):
        assert _gate_unitary.cache_info().maxsize is not None


def _flip_distribution(probs, num_bits, flip):
    """Push a distribution through independent per-bit symmetric flips."""
    tensor = probs.reshape([2] * num_bits)
    for axis in range(num_bits):
        tensor = (1.0 - flip) * tensor + flip * np.flip(tensor, axis=axis)
    return tensor.reshape(-1)


def _random_circuit(rng, num_qubits, depth=3):
    """Layers of random U3s, each followed by a CU3 chain."""
    gates = []
    for _ in range(depth):
        gates += [u3(q, *rng.uniform(-PI, PI, 3)) for q in range(num_qubits)]
        gates += [cu3(q, q + 1, *rng.uniform(-PI, PI, 3))
                  for q in range(num_qubits - 1)]
    return Circuit(num_qubits, gates)


class TestReadoutFlips:
    def test_fold_matches_flipped_distribution(self, rng):
        """Oracle: flip the bits of the flip-free state's readout."""
        circuit = _random_circuit(rng, 3)
        clean = run_density_matrix(circuit, NoiseModel(0.05, 0.1))
        for p in (0.0, 0.1, 0.5, 0.7, 1.0):
            folded = run_density_matrix(circuit, NoiseModel(0.05, 0.1, p))
            for qubits in ([0, 1, 2], [2, 0, 1]):
                for setting in map("".join, itertools.product("XYZ", repeat=3)):
                    expected = _flip_distribution(measured(clean, setting, qubits), 3, p)
                    np.testing.assert_allclose(
                        measured(folded, setting, qubits),
                        expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", range(2, 6))
    def test_folded_state_stays_physical(self, rng, num_qubits):
        # Folding the flips into a subset of the qubits of an entangled
        # state would not be positive past p = 2/3; over all of them it is.
        circuit = _random_circuit(rng, num_qubits)
        for p in np.linspace(0.0, 1.0, 11):
            rho = run_density_matrix(circuit, NoiseModel(0.02, 0.02, p))
            assert rho.physical
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_circuit_json_roundtrip(self, tmp_path):
        circuit = Circuit(3, [x(0), u3(1, 0.1, 0.2, 0.3),
                              cu3(2, 0, PI / 2, 0, 0)], ancilla=2)
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit.to_json()))
        assert Circuit.load(path) == circuit
