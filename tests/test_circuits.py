import itertools
import json
import math

import numpy as np
import pytest

from hetverify.circuits import (
    _I2,
    _P0,
    _P1,
    BASIS_ROTATIONS,
    Circuit,
    NoiseModel,
    ShotTable,
    _gate_unitary,
    _outcomes,
    _rotation_stack,
    cu3,
    _embed,
    depolarize,
    gate_unitary,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    u3,
    u3_matrix,
    x,
)
from hetverify.states import StateVector
from hetverify.tomography import PAULI_MATRICES

from conftest import counts, random_density, random_pure, shot_table

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
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        assert dist.outcomes == ("0", "1")
        assert dist.probabilities.tolist() == [1.0, 0.0]

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
        assert dist.outcomes == ("0", "1")
        assert dist.probabilities[0] == pytest.approx(1.0)
        swapped = measure_in_basis(state, "ZZ", [1, 0])
        assert swapped.outcomes[1] == "01"
        assert swapped.probabilities[1] == pytest.approx(1.0)

    def test_invalid_basis_letter(self):
        with pytest.raises(ValueError, match="basis"):
            measure_in_basis(StateVector.computational("0"), "Q")


class TestSampling:
    def test_deterministic_outcome(self):
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        table = sample_shots(dist.probabilities, 100, seed=1)
        assert table.vector.tolist() == [100, 0]

    def test_same_seed_same_table(self):
        dist = measure_in_basis(StateVector.computational("0"), "X")
        a = sample_shots(dist.probabilities, 5000, seed=42)
        b = sample_shots(dist.probabilities, 5000, seed=42)
        assert a == b

    def test_large_sample_frequency(self):
        dist = measure_in_basis(StateVector.computational("0"), "X")
        table = sample_shots(dist.probabilities, 10**6, seed=7)
        assert abs(table.vector[0] / 10**6 - 0.5) < 0.002

    def test_sampling_converges_in_tvd(self):
        circuit = Circuit(2, [u3(0, 1.0, 0.3, 0.2), cu3(0, 1, 2.0, 0.0, 0.0)])
        dist = measure_in_basis(run_statevector(circuit), "ZZ")
        table = sample_shots(dist.probabilities, 10**6, seed=5)
        tvd = 0.5 * np.abs(table.vector / table.shots - dist.probabilities).sum()
        assert tvd <= 0.005

    def test_shot_count_validation(self):
        dist = measure_in_basis(StateVector.computational("0"), "Z")
        with pytest.raises(ValueError, match="shots"):
            sample_shots(dist.probabilities, 0, seed=0)

    def test_postselect(self):
        table = shot_table("XZ", {"01": 30, "11": 20, "00": 50}, 100)
        kept = table.postselect(1, 1)
        assert kept == shot_table("X", {"0": 30, "1": 20}, 50)


def _postselect_by_loop(table, bit, value):
    """The dict loop that post-selection used before count vectors."""
    kept = {}
    for bits, count in counts(table).items():
        if int(bits[bit]) == value:
            reduced = bits[:bit] + bits[bit + 1:]
            kept[reduced] = kept.get(reduced, 0) + count
    return table.setting[:bit] + table.setting[bit + 1:], kept, sum(kept.values())


def _random_draws(rng, width, shots=500):
    """Multinomial counts over 2^width outcomes, many of them zero."""
    probs = rng.dirichlet(np.full(2**width, 0.3))
    return rng.multinomial(shots, probs)


class TestShotTable:
    @pytest.mark.parametrize("width", range(1, 6))
    def test_counts_view_matches_dict_of_draws(self, rng, width):
        for _ in range(20):
            draws = _random_draws(rng, width)
            table = ShotTable("Z" * width, draws, int(draws.sum()))
            expected = {bits: int(c) for bits, c in zip(_outcomes(width), draws)
                        if c > 0}
            assert dict(counts(table)) == expected
            assert list(counts(table)) == list(expected)
            assert all(type(c) is int for c in counts(table).values())

    def test_vector_and_counts_are_read_only(self, rng):
        draws = _random_draws(rng, 2)
        table = ShotTable("XY", draws, int(draws.sum()))
        with pytest.raises(ValueError):
            table.vector[0] = 1
        with pytest.raises(TypeError):
            counts(table)["00"] = 1
        # The table owns the draws it was given: no copy, no writer left.
        assert table.vector is draws and not draws.flags.writeable
        assert shot_table("XY", counts(table), table.shots) == table

    @pytest.mark.parametrize("width", range(1, 6))
    def test_postselect_matches_dict_loop(self, rng, width):
        setting = "".join(rng.choice(list("XYZ"), size=width))
        table = ShotTable(setting, _random_draws(rng, width), 500)
        for bit in range(width):
            for value in (0, 1):
                kept = table.postselect(bit, value)
                assert kept == shot_table(*_postselect_by_loop(table, bit, value))
                assert (kept.setting, dict(counts(kept)), kept.shots) \
                    == _postselect_by_loop(table, bit, value)

    def test_total_must_match_shots(self):
        with pytest.raises(ValueError, match="sum to the declared shot total"):
            shot_table("Z", {"0": 3, "1": 4}, 8)
        with pytest.raises(ValueError, match="sum to the declared shot total"):
            ShotTable("Z", np.array([3, 4]), 6)

    def test_vector_length_must_match_setting(self):
        with pytest.raises(ValueError, match="'XZ' needs 4 counts"):
            ShotTable("XZ", np.array([1, 2]), 3)


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
            measure_in_basis(StateVector.computational("000"), "".join(setting))
        assert _rotation_stack.cache_info().currsize == 16


def measure_one(state, setting, qubits):
    """The per-setting measurement the stacked rows must reproduce bytewise:
    embedded rotation, diagonal of the rotated state, marginal in the
    caller's qubit order, clipped and normalized."""
    n = state.num_qubits
    rot = _embed({q: BASIS_ROTATIONS[letter] for q, letter in zip(qubits, setting)}, n)
    if isinstance(state, StateVector):
        full = np.abs(rot @ state.amplitudes) ** 2
    else:
        full = np.real(np.diag(rot @ state.matrix @ rot.conj().T))
    tensor = full.reshape([2] * n)
    unmeasured = tuple(q for q in range(n) if q not in qubits)
    marginal = tensor.sum(axis=unmeasured) if unmeasured else tensor
    kept = [q for q in range(n) if q in qubits]
    marginal = marginal.transpose([kept.index(q) for q in qubits]).reshape(-1)
    marginal = np.clip(marginal, 0.0, None)
    marginal /= marginal.sum()
    return marginal


def readouts(num_qubits):
    """Up to four qubits in order; qubits 1.. then 0, as an ancilla at
    index 0 is read last; and a shuffled subset that leaves qubits
    unmeasured."""
    rng = np.random.default_rng(num_qubits)
    yield tuple(range(num_qubits))[:4]
    if num_qubits > 1:
        yield tuple(range(1, min(num_qubits, 5))) + (0,)
        yield tuple(rng.permutation(num_qubits)[:max(1, num_qubits - 2)].tolist())


class TestStackedMeasurement:
    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_rows_match_per_setting_formula_bytewise(self, rng, num_qubits):
        gates = [u3(q, 0.3 + q, 0.2, -0.4) for q in range(num_qubits)]
        gates += [cu3(0, q, 1.1, 0.5, 0.0) for q in range(1, num_qubits)]
        noisy = run_density_matrix(Circuit(num_qubits, gates), NoiseModel(0.01, 0.02, 0.03))
        states = (random_pure(rng, num_qubits), random_density(rng, num_qubits), noisy)
        for qubits in readouts(num_qubits):
            settings = ["".join(s) for s in itertools.product("XYZ", repeat=len(qubits))]
            for state in states:
                dist = measure_in_basis(state, settings, qubits)
                assert dist.probabilities.shape == (len(settings), 2 ** len(qubits))
                for setting, row in zip(settings, dist.probabilities):
                    assert row.tobytes() == measure_one(state, setting, qubits).tobytes()

    @pytest.mark.parametrize("width", [3, 4])
    def test_stacks_spanning_several_blocks(self, rng, width):
        # 27 and 81 settings: 3 and 9 blocks, ancilla at index 0 read last.
        state = run_density_matrix(
            Circuit(width + 1, [x(0)] + [cu3(0, q, 0.7 * q, 0.1, 0.2)
                                         for q in range(1, width + 1)], ancilla=0),
            NoiseModel(0.02, 0.04, 0.01))
        qubits = tuple(range(1, width + 1)) + (0,)
        settings = ["".join(s) + "Z" for s in itertools.product("XYZ", repeat=width)]
        dist = measure_in_basis(state, settings, qubits)
        assert len(dist.probabilities) == 3**width
        for setting, row in zip(settings, dist.probabilities):
            assert row.tobytes() == measure_one(state, setting, qubits).tobytes()
            single = measure_in_basis(state, setting, qubits).probabilities
            assert single.ndim == 1 and single.tobytes() == row.tobytes()

    def test_every_setting_of_a_stack_is_checked(self):
        state = StateVector.computational("00")
        with pytest.raises(ValueError, match="'XYZ' does not match 2 qubits"):
            measure_in_basis(state, ["XY", "XYZ"])
        with pytest.raises(ValueError, match="basis"):
            measure_in_basis(state, ["XY", "QZ"])
        with pytest.raises(ValueError, match="no basis setting"):
            measure_in_basis(state, [])


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
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_circuit_json_roundtrip(self, tmp_path):
        circuit = Circuit(3, [x(0), u3(1, 0.1, 0.2, 0.3),
                              cu3(2, 0, PI / 2, 0, 0)], ancilla=2)
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit.to_json()))
        assert Circuit.load(path) == circuit
