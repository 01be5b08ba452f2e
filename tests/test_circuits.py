import itertools
import math

import numpy as np
import pytest

from hetverify.circuits import (
    _I2,
    Circuit,
    NoiseModel,
    ShotTable,
    apply_gate,
    cu3,
    _embed,
    depolarize,
    gate_unitary,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    shot_tables_from_csv,
    shot_tables_to_csv,
    u3,
    u3_matrix,
    x,
)
from hetverify.states import StateVector
from hetverify.tomography import PAULI_MATRICES

PI = math.pi


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
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_full_depolarization(self):
        circuit = Circuit(1, [x(0)])
        rho = run_density_matrix(circuit, NoiseModel(depolarizing_prob_1q=1.0))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_partial_depolarization_reduces_purity(self):
        circuit = Circuit(2, [x(0), u3(1, PI / 2, PI / 2, PI / 2)])
        rho = run_density_matrix(circuit, NoiseModel(depolarizing_prob_1q=0.05))
        assert rho.purity() < 1.0

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


class TestMeasureInBasis:
    def test_z_on_zero(self):
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        assert dist.as_dict() == {"0": 1.0, "1": 0.0}

    def test_x_on_zero_is_uniform(self):
        dist = measure_in_basis(StateVector.computational("0"), "X")
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])

    def test_y_eigenstate_deterministic(self):
        plus_i = StateVector(1, np.array([1, 1j]) / np.sqrt(2))
        dist = measure_in_basis(plus_i, "Y")
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-12)

    def test_plus_in_x_deterministic(self):
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        dist = measure_in_basis(plus, "X")
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-12)

    def test_rotation_consistency(self):
        # measuring an X-rotated state in Z equals measuring original in X
        circuit = Circuit(1, [u3(0, 0.8, 0.0, 0.0)])
        state = run_statevector(circuit)
        rotated = apply_gate(state, u3(0, PI / 2, 0, PI))  # Hadamard
        np.testing.assert_allclose(
            measure_in_basis(state, "X").probabilities,
            measure_in_basis(rotated, "Z").probabilities, atol=1e-12)

    def test_marginalization_and_order(self):
        state = StateVector.computational("10")
        dist = measure_in_basis(state, "Z", [1])
        assert dist.as_dict()["0"] == pytest.approx(1.0)
        swapped = measure_in_basis(state, "ZZ", [1, 0])
        assert swapped.as_dict()["01"] == pytest.approx(1.0)

    def test_invalid_basis_letter(self):
        with pytest.raises(ValueError, match="basis"):
            measure_in_basis(StateVector.computational("0"), "Q")


class TestSampling:
    def test_deterministic_outcome(self):
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        table = sample_shots(dist, 100, seed=1)
        assert table.counts == {"0": 100}

    def test_same_seed_same_table(self):
        dist = measure_in_basis(StateVector.computational("0"), "X")
        a = sample_shots(dist, 5000, seed=42)
        b = sample_shots(dist, 5000, seed=42)
        assert a == b

    def test_large_sample_frequency(self):
        dist = measure_in_basis(StateVector.computational("0"), "X")
        table = sample_shots(dist, 10**6, seed=7)
        assert abs(table.counts["0"] / 10**6 - 0.5) < 0.002

    def test_sampling_converges_in_tvd(self):
        circuit = Circuit(2, [u3(0, 1.0, 0.3, 0.2), cu3(0, 1, 2.0, 0.0, 0.0)])
        dist = measure_in_basis(run_statevector(circuit), "ZZ")
        table = sample_shots(dist, 10**6, seed=5)
        freqs = table.frequencies()
        tvd = 0.5 * sum(abs(freqs.get(o, 0.0) - p)
                        for o, p in dist.as_dict().items())
        assert tvd <= 0.005

    def test_shot_count_validation(self):
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        with pytest.raises(ValueError, match="shots"):
            sample_shots(dist, 0, seed=0)

    def test_postselect(self):
        table = ShotTable("XZ", {"01": 30, "11": 20, "00": 50}, 100)
        kept = table.postselect(1, 1)
        assert kept == ShotTable("X", {"0": 30, "1": 20}, 50)


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
            for width in (1, 2, 3):
                for setting in map("".join, itertools.product("XYZ", repeat=width)):
                    qubits = list(range(3 - width, 3))
                    expected = _flip_distribution(
                        measure_in_basis(clean, setting, qubits).probabilities,
                        width, p)
                    np.testing.assert_allclose(
                        measure_in_basis(folded, setting, qubits).probabilities,
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
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_circuit_json_roundtrip(self, tmp_path):
        circuit = Circuit(3, [x(0), u3(1, 0.1, 0.2, 0.3),
                              cu3(2, 0, PI / 2, 0, 0)], ancilla=2)
        path = tmp_path / "circuit.json"
        circuit.save(path)
        assert Circuit.load(path) == circuit

    def test_shot_table_csv_roundtrip(self, tmp_path):
        tables = [ShotTable("XZ", {"00": 10, "11": 5}, 15),
                  ShotTable("ZZ", {"01": 7}, 7)]
        path = tmp_path / "shots.csv"
        shot_tables_to_csv(tables, path)
        recovered = sorted(shot_tables_from_csv(path), key=lambda t: t.setting)
        assert recovered == sorted(tables, key=lambda t: t.setting)
