import math

import numpy as np
import pytest

from hetverify.circuits import Circuit, NoiseModel, run_statevector
from hetverify.metrics import fidelity
from hetverify.protocols import (
    BALANCED_ZETA,
    UNBALANCED_ZETA,
    _prep_gates,
    bound_check,
    boson_sampling_circuit,
    complementary,
    fidelity_witness,
    heterodyne_stage,
    ideal_output,
    multi_mode_circuit,
    protocol1_run,
    protocol2_run,
    protocol3_verify,
    single_mode_circuit,
)
from hetverify.states import StateVector, tensor_product
from hetverify.tomography import reduced_fidelities

from conftest import marginals, random_density, random_pure

PI = math.pi
SQRT_HALF = 1 / np.sqrt(2)
IDEAL_FOCK_WITNESS = 1 - 4 * (1 - SQRT_HALF)  # about -0.1716


class TestComplementary:
    def test_complementary(self):
        assert (BALANCED_ZETA, UNBALANCED_ZETA) == (0.0, PI / 2)
        assert complementary(0.0) == PI / 2
        assert complementary(PI / 2) == 0.0

    def test_other_angles_unchanged(self):
        # -0.0 compares equal to the balanced zeta, so it too is balanced.
        assert complementary(-0.0) == PI / 2
        assert complementary(PI / 3) == PI / 3


class TestPrepGates:
    @pytest.mark.parametrize("spec", [
        "2", "12", "", (1,), (1, 2, 3), (0, 0), (0j, 0.0), (math.nan, 1),
        (1, math.inf), ("a", 1), None, 2,
        # Each amplitude is finite, but the norm overflows: normalised, the
        # pair would read (0, 0) and prepare |0> instead of |+>.
        (1.7e308, 1.7e308),
    ], ids=repr)
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="cannot prepare"):
            _prep_gates(spec, 0)

    def test_protocol2_rejects_malformed_initial(self):
        with pytest.raises(ValueError, match="cannot prepare '2'"):
            protocol2_run("1102", BALANCED_ZETA, shots=None)

    @pytest.mark.parametrize("spec", ["0", 0, "1", 1, (0.6, 0.8), (1j, 1)], ids=repr)
    def test_valid_spec_prepares_its_state(self, spec):
        state = run_statevector(Circuit(1, _prep_gates(spec, 0)))
        alpha, beta = {"0": (1, 0), "1": (0, 1)}.get(str(spec), spec)
        expected = np.array([alpha, beta], dtype=complex)
        expected /= np.linalg.norm(expected)
        assert abs(np.vdot(expected, state.amplitudes)) == pytest.approx(1.0, abs=1e-12)


class TestHeterodyneStage:
    def test_balanced_is_identity_action(self):
        circuit = single_mode_circuit("1", BALANCED_ZETA)
        state = run_statevector(circuit)
        # system unchanged, ancilla flipped to |1>
        expected = StateVector.computational("11")
        np.testing.assert_allclose(np.abs(state.amplitudes),
                                   np.abs(expected.amplitudes), atol=1e-12)

    def test_unbalanced_rotates_zero(self):
        circuit = single_mode_circuit("0", UNBALANCED_ZETA)
        rho = ideal_output(circuit)
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        assert fidelity(rho, plus.density()) == pytest.approx(1.0, abs=1e-10)

    def test_pi_third_amplitudes(self):
        circuit = single_mode_circuit("0", PI / 3)
        rho = ideal_output(circuit)
        target = StateVector(1, np.array([np.sqrt(3) / 2, 0.5]))
        assert fidelity(rho, target.density()) == pytest.approx(1.0, abs=1e-10)

    def test_requires_ancilla(self):
        with pytest.raises(ValueError, match="ancilla"):
            heterodyne_stage(Circuit(2), BALANCED_ZETA)


class TestFidelityWitness:
    def test_perfect(self):
        assert fidelity_witness([1, 1, 1, 1]) == 1.0

    def test_arithmetic(self):
        assert fidelity_witness([0.9] * 4) == pytest.approx(0.6)

    def test_ideal_interferometer_witness(self):
        assert fidelity_witness([SQRT_HALF] * 4) == \
            pytest.approx(IDEAL_FOCK_WITNESS, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fidelity_witness([])

    def test_bounded_by_min_fidelity(self, rng):
        for _ in range(100):
            fids = rng.uniform(0, 1, size=4)
            assert fidelity_witness(fids) <= fids.min() + 1e-12

    def test_lower_bounds_global_fidelity(self, rng):
        # witness <= global fidelity over randomized states and product targets
        violations = 0
        for _ in range(500):
            rho = random_density(rng, 4)
            targets = [random_pure(rng) for _ in range(4)]
            witness = fidelity_witness(reduced_fidelities(marginals(rho), targets))
            product = targets[0]
            for t in targets[1:]:
                product = tensor_product(product, t)
            if witness > fidelity(rho, product.density()) + 1e-8:
                violations += 1
        assert violations == 0

    def test_equals_one_iff_all_marginals_match(self):
        circuit = multi_mode_circuit("1100", UNBALANCED_ZETA)
        rho = ideal_output(circuit)
        targets = [StateVector(1, v / np.linalg.norm(v)) for v in (
            np.linalg.eigh(m.matrix)[1][:, -1]
            for m in (reduced(rho, q) for q in range(4)))]
        assert fidelity_witness(reduced_fidelities(marginals(rho), targets)) == \
            pytest.approx(1.0, abs=1e-9)


def reduced(rho, q):
    from hetverify.states import partial_trace

    return partial_trace(rho, [q])


class TestInequalityChains:
    def test_perfect_state(self):
        chains = bound_check(1.0, 0.0, 0.0)
        assert all(c["holds"] for c in chains)
        assert chains[0]["lhs"] == 0.0 and chains[0]["rhs"] == 0.0

    def test_reference_numbers(self):
        chains = bound_check(0.6918, 0.3722, 0.1514)
        fvg, tvd_chain = chains
        assert (round(fvg["lhs"], 4), round(fvg["mid"], 4), round(fvg["rhs"], 4)) == \
            (0.3082, 0.3722, 0.7221)
        assert round(tvd_chain["lhs"], 4) == 0.1514
        assert tvd_chain["rhs"] == pytest.approx(0.5551, abs=1e-4)
        assert fvg["holds"] and tvd_chain["holds"]

    def test_violated_chain_reported_not_raised(self):
        chains = bound_check(0.9, 0.5, 0.0)
        assert not chains[0]["holds"]  # 0.5 > sqrt(1 - 0.81)


class TestProtocol1:
    def test_exact_backend_perfect_fidelity(self):
        report = protocol1_run("1", UNBALANCED_ZETA, (3, 3), shots=None)
        for group in report["groups"]:
            assert group["copy_fidelities"] == pytest.approx([1.0] * 3, abs=1e-10)
            assert group["std"] == pytest.approx(0.0, abs=1e-12)

    def test_superposition_input_exact(self):
        report = protocol1_run((0.6, 0.8), BALANCED_ZETA, (2, 2), shots=None)
        assert report["groups"][0]["mean"] == pytest.approx(1.0, abs=1e-10)

    def test_sampled_shot_noise_envelope(self):
        report = protocol1_run("1", UNBALANCED_ZETA, (5, 5), shots=8192, seed=1)
        all_fids = (report["groups"][0]["copy_fidelities"]
                    + report["groups"][1]["copy_fidelities"])
        assert np.mean(all_fids) >= 0.99
        assert np.std(all_fids, ddof=1) <= 0.01

    def test_seeded_reproducibility(self):
        a = protocol1_run("1", BALANCED_ZETA, (2, 2),
                          shots=1024, seed=5)
        b = protocol1_run("1", BALANCED_ZETA, (2, 2),
                          shots=1024, seed=5)
        assert a["groups"][0]["copy_fidelities"] == b["groups"][0]["copy_fidelities"]

    def test_copy_plan_validation(self):
        for run, initial in ((protocol1_run, "1"), (protocol2_run, "1100")):
            for copies in ((0, 5), (-1, 5)):
                with pytest.raises(ValueError, match="copy counts must be at least 1"):
                    run(initial, BALANCED_ZETA, copies, shots=None)


class TestProtocol2:
    def test_exact_noiseless_balanced(self):
        report = protocol2_run("1100", BALANCED_ZETA, (1, 1), shots=None)
        assert report["global_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["witness"] == pytest.approx(1.0, abs=1e-9)

    def test_core_state_targets_unbalanced(self):
        report = protocol2_run("1100", UNBALANCED_ZETA, (1, 1), shots=None)
        group = report["groups"][0]
        np.testing.assert_allclose(group["reduced_fidelities_input"],
                                   [SQRT_HALF] * 4, atol=1e-9)
        assert group["witness_input"] == pytest.approx(IDEAL_FOCK_WITNESS,
                                                    abs=1e-9)

    def test_both_groups_present_with_complementary_settings(self):
        report = protocol2_run("1100", UNBALANCED_ZETA, (1, 1), shots=None)
        assert [g["label"] for g in report["groups"]] == ["N", "M"]
        assert report["groups"][0]["zeta"] == pytest.approx(PI / 2)
        assert report["groups"][1]["zeta"] == pytest.approx(0.0)

    def test_superposition_input(self):
        initial = [(0.6, 0.8), (1, 0), (0, 1), (SQRT_HALF, SQRT_HALF)]
        report = protocol2_run(initial, BALANCED_ZETA, (1, 1), shots=None)
        assert report["global_fidelity"] == pytest.approx(1.0, abs=1e-9)


class TestProtocol3:
    def test_exact_noiseless_accepts(self):
        report = protocol3_verify(shots=None)
        assert report["global_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["groups"][0]["witness_ideal"] == pytest.approx(1.0, abs=1e-9)
        assert report["trace_distance"] == pytest.approx(0.0, abs=1e-9)
        assert report["tvd"] == pytest.approx(0.0, abs=1e-9)
        assert report["verdict"] == "accept"
        assert all(c["holds"] for c in report["bound_checks"])

    def test_fock_witness_ideal_value(self):
        report = protocol3_verify(shots=None)
        np.testing.assert_allclose(report["groups"][0]["reduced_fidelities_input"],
                                   [SQRT_HALF] * 4, atol=1e-6)
        assert report["witness"] == pytest.approx(IDEAL_FOCK_WITNESS, abs=1e-6)

    def test_depolarizing_noise_flips_verdict(self):
        noise = NoiseModel(depolarizing_prob_1q=0.3, depolarizing_prob_2q=0.3)
        report = protocol3_verify(shots=None, noise=noise)
        assert report["global_fidelity"] < 0.6
        assert report["verdict"] == "reject"

    def test_boundary_fidelity_accepts(self):
        report = protocol3_verify(shots=None, threshold=1.0)
        # exact run returns fidelity 1 within tolerance; >= comparison accepts
        assert report["verdict"] == ("accept" if report["global_fidelity"] >= 1.0
                                  else "reject")

    def test_bound_chains_hold_on_noisy_run(self):
        noise = NoiseModel(depolarizing_prob_1q=0.05, depolarizing_prob_2q=0.1)
        report = protocol3_verify(shots=None, noise=noise)
        assert all(c["holds"] for c in report["bound_checks"])

    def test_unphysical_raw_state_is_reported(self):
        # The raw linear-inversion state of this run has a negative
        # eigenvalue; scoring it directly broke both chains.
        report = protocol3_verify(shots=256, seed=1)
        assert report["raw_min_eigenvalue"] == pytest.approx(-0.0646, abs=1e-4)
        assert report["verdict"] == "accept"

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_chains_hold_on_sampled_runs(self, seed):
        # The chains read the physical projection of the raw state.
        report = protocol3_verify(shots=256, seed=seed)
        assert all(c["holds"] for c in report["bound_checks"])

    @pytest.mark.parametrize("m_modes", [1, 2, 3])
    def test_fewer_modes(self, m_modes):
        # Reconstruction follows the circuit's system qubits, so fewer
        # than four modes reconstructs an m-qubit state.
        report = protocol3_verify(n_photons=1, m_modes=m_modes, shots=None)
        assert len(report["groups"][0]["reduced_fidelities_input"]) == m_modes
        assert report["global_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["verdict"] == "accept"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            protocol3_verify(n_photons=5, m_modes=4, shots=None)
        with pytest.raises(ValueError):
            protocol3_verify(threshold=1.5, shots=None)

    def test_circuit_layout(self):
        circuit = boson_sampling_circuit(
            2, 4, [(PI / 2, PI / 2, PI / 2)] * 4,
            UNBALANCED_ZETA)
        assert circuit.num_qubits == 5 and circuit.ancilla == 4
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["x", "x", "u3", "u3", "u3", "u3", "x",
                         "cu3", "cu3", "cu3", "cu3"]
