import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetverify.metrics import total_variation_distance
from hetverify.states import (
    TRACE_ATOL,
    DensityMatrix,
    StateVector,
    condition_on_ancilla,
    partial_trace,
    project_to_physical,
)

from conftest import random_density, random_pure, random_unphysical, with_spectrum


def bell_phi_plus():
    return StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)).density()


class TestPartialTrace:
    def test_product_state(self):
        rho = StateVector.computational("00").density()
        reduced = partial_trace(rho, [0])
        np.testing.assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_bell_marginal_is_mixed(self):
        reduced = partial_trace(bell_phi_plus(), [0])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_four_qubit_product(self):
        rho = StateVector.computational("1100").density()
        reduced = partial_trace(rho, [0])
        np.testing.assert_allclose(reduced.matrix, [[0, 0], [0, 1]], atol=1e-14)

    def test_trace_and_hermiticity_preserved(self, rng):
        rho = random_density(rng, 3)
        reduced = partial_trace(rho, [0, 2])
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(reduced.matrix,
                                   reduced.matrix.conj().T, atol=1e-12)

    def test_roundtrip_with_tensor_product(self, rng):
        a = random_density(rng, 1)
        b = random_density(rng, 2)
        joint = DensityMatrix(3, np.kron(a.matrix, b.matrix))
        np.testing.assert_allclose(partial_trace(joint, [0]).matrix,
                                   a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, [1, 2]).matrix,
                                   b.matrix, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_phi_plus(), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_phi_plus(), [5])

    @pytest.mark.parametrize("keep", [[0, 2], [1, 2, 3], [0, 1, 2, 3], [1]])
    def test_partial_trace_matches_einsum(self, rng, keep):
        n = 4
        rho = random_density(rng, n)
        letters = "abcdefgh"
        rows, cols = letters[:n], letters[n:]
        cols = "".join(rows[q] if q not in keep else cols[q] for q in range(n))
        out = "".join(rows[q] for q in keep) + "".join(cols[q] for q in keep)
        expected = np.einsum(f"{rows}{cols}->{out}", rho.matrix.reshape([2] * 2 * n))
        dim = 2 ** len(keep)
        np.testing.assert_allclose(partial_trace(rho, keep).matrix,
                                   expected.reshape(dim, dim), atol=1e-15)


class TestConditionOnAncilla:
    def test_product_state_renormalized(self):
        rho = StateVector.computational("01").density()
        result = condition_on_ancilla(rho, 1)
        np.testing.assert_allclose(result.matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_zero_probability_branch_errors(self):
        rho = StateVector.computational("00").density()
        with pytest.raises(ValueError, match="probability"):
            condition_on_ancilla(rho, 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_vector_matches_density(self, n, seed):
        state = random_pure(np.random.default_rng(seed), n)
        for qubit in range(n):
            conditioned = condition_on_ancilla(state, qubit)
            assert isinstance(conditioned, StateVector) and conditioned.num_qubits == n - 1
            np.testing.assert_allclose(conditioned.density().matrix,
                                       condition_on_ancilla(state.density(), qubit).matrix,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_probability_message_is_the_same_for_both_kinds(self, rng, n):
        for qubit in range(n):
            # A random vector whose qubit never reads 1.
            amps = random_pure(rng, n).amplitudes.reshape(2**qubit, 2, -1).copy()
            amps[:, 1] = 0
            state = StateVector(n, amps.reshape(-1) / np.linalg.norm(amps))
            messages = []
            for form in (state, state.density()):
                with pytest.raises(ValueError) as err:
                    condition_on_ancilla(form, qubit)
                messages.append(str(err.value))
            assert messages == [f"conditioning on outcome 1 of qubit {qubit} has probability "
                                "0.000e+00; renormalization undefined"] * 2


class TestProjectToPhysical:
    def test_physical_state_unchanged(self, rng):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(project_to_physical(rho).matrix,
                                   rho.matrix, atol=1e-12)

    def test_single_negative_eigenvalue(self):
        raw = DensityMatrix(1, np.diag([1.2, -0.2]))
        np.testing.assert_allclose(project_to_physical(raw).matrix,
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_invariants_after_clipping(self):
        raw = DensityMatrix(2, np.diag([0.7, 0.5, -0.2, 0.0]))
        projected = project_to_physical(raw)
        eigvals = np.linalg.eigvalsh(projected.matrix)
        assert eigvals.min() >= -1e-12
        assert np.trace(projected.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert projected.physical

    def test_closest_in_two_norm_beats_naive_clip(self):
        # eigenvalue clipping with redistribution: deficit spread over the
        # surviving eigenvalues, matching the known closest-state result
        raw = DensityMatrix(2, np.diag([0.7, 0.5, -0.2, 0.0]))
        projected = project_to_physical(raw)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(projected.matrix)),
                                   [0.0, 0.0, 0.4, 0.6], atol=1e-12)


class TestConstructionValidation:
    def test_statevector_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_density_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[1, 1], [0, 0]], dtype=complex))

    def test_physicality_autodetected(self):
        raw = DensityMatrix(1, np.diag([1.3, -0.3]))
        assert not raw.physical
        good = DensityMatrix(1, np.diag([0.5, 0.5]))
        assert good.physical

    @pytest.mark.parametrize("build", [
        lambda bad: StateVector(1, [bad, 0]),
        lambda bad: StateVector(2, [0.5, 0.5, 0.5, bad * 1j]),
        lambda bad: DensityMatrix(1, [[bad, 0], [0, 0]]),
        lambda bad: DensityMatrix(1, [[0.5, bad], [bad, 0.5]]),
        lambda bad: total_variation_distance([bad, 1.0], [0.5, 0.5]),
        # The second row of a stack of two distributions, compared row to row.
        lambda bad: total_variation_distance(*np.array([[0.5, 0.5], [1.0, bad]])),
    ], ids=["statevector", "statevector-imag", "density-diagonal",
            "density-coherence", "distribution", "distribution-stack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("margin,accepted", [(0.99, True), (1.01, False)],
                             ids=["inside", "outside"])
    def test_statevector_norm_edge_matches_density_trace(self, rng, num_qubits,
                                                         margin, accepted):
        # |psi|^2 = 1 +- margin * TRACE_ATOL, the tolerance of `physical`.
        for sign in (1, -1):
            amps = random_pure(rng, num_qubits).amplitudes
            amps = amps * np.sqrt(1 + sign * margin * TRACE_ATOL)
            if not accepted:
                with pytest.raises(ValueError, match="normalized"):
                    StateVector(num_qubits, amps)
                continue
            assert StateVector(num_qubits, amps).density().physical


def check_physical_oracle(mat):
    """The rule that used to run on every construction: trace one within
    1e-8 and no eigenvalue below -1e-8."""
    if abs(np.trace(mat).real - 1.0) > 1e-8:
        return False
    return float(np.linalg.eigvalsh(mat).min()) >= -1e-8


class TestPhysicalProperty:
    def test_fields_are_num_qubits_and_matrix(self):
        assert [f.name for f in dataclasses.fields(DensityMatrix)] == [
            "num_qubits", "matrix"]

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_matches_construction_rule_on_random_matrices(self, rng, num_qubits):
        samples = []
        for _ in range(10):
            rho = random_density(rng, num_qubits)
            scale = 1 + rng.choice([-1, 1]) * rng.uniform(1e-6, 0.1)
            samples += [rho, random_pure(rng, num_qubits).density(),
                        random_unphysical(rng, num_qubits),
                        DensityMatrix(num_qubits, rho.matrix * scale)]
        verdicts = [sample.physical for sample in samples]
        assert verdicts == [check_physical_oracle(sample.matrix) for sample in samples]
        assert verdicts == [True, True, False, False] * 10

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("margin,physical", [(0.9, True), (1.1, False)],
                             ids=["inside", "outside"])
    def test_tolerance_edges(self, rng, num_qubits, margin, physical):
        offset = margin * 1e-8
        spectrum = rng.dirichlet(np.ones(2**num_qubits))
        cases = [
            with_spectrum(rng, spectrum * (1 + offset)),  # trace 1 + offset
            with_spectrum(rng, spectrum * (1 - offset)),  # trace 1 - offset
            # Trace one, lowest eigenvalue -offset.
            with_spectrum(rng, [-offset, *spectrum[1:] / spectrum[1:].sum() * (1 + offset)]),
        ]
        for rho in cases:
            assert rho.physical is physical
            assert check_physical_oracle(rho.matrix) is physical


class TestFormerClaimSitesArePhysical:
    """Every constructor that once declared its result physical yields a
    physical state from physical inputs."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_statevector_density(self, rng, num_qubits):
        for _ in range(20):
            assert random_pure(rng, num_qubits).density().physical

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_partial_trace(self, rng, num_qubits):
        for _ in range(10):
            keep = rng.choice(num_qubits, size=rng.integers(1, num_qubits + 1),
                              replace=False)
            for rho in (random_density(rng, num_qubits),
                        random_pure(rng, num_qubits).density()):
                assert partial_trace(rho, keep).physical

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_condition_on_ancilla(self, rng, num_qubits):
        for _ in range(10):
            qubit = int(rng.integers(num_qubits))
            for rho in (random_density(rng, num_qubits),
                        random_pure(rng, num_qubits).density()):
                assert condition_on_ancilla(rho, qubit).physical

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_project_to_physical(self, rng, num_qubits):
        for _ in range(10):
            rho = random_density(rng, num_qubits)
            for raw in (random_unphysical(rng, num_qubits), rho,
                        DensityMatrix(num_qubits, 1.05 * rho.matrix)):
                assert project_to_physical(raw).physical
