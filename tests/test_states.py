import numpy as np
import pytest

from hetverify.states import (
    DensityMatrix,
    StateVector,
    condition_on_ancilla,
    partial_trace,
    project_to_physical,
    tensor_product,
)

from conftest import random_density


def bell_phi_plus():
    return StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)).density()


class TestTensorProduct:
    def test_zero_kets(self):
        result = tensor_product(StateVector.computational("0"),
                                StateVector.computational("0"))
        np.testing.assert_allclose(result.amplitudes, [1, 0, 0, 0])

    def test_projectors(self):
        result = tensor_product(StateVector.computational("1").density(),
                                StateVector.computational("0").density())
        np.testing.assert_allclose(result.matrix, np.diag([0, 0, 1, 0]))

    def test_plus_times_one(self):
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        result = tensor_product(plus, StateVector.computational("1"))
        np.testing.assert_allclose(
            result.amplitudes, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(StateVector.computational("0"),
                           StateVector.computational("0").density())


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
        assert reduced.trace() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(reduced.matrix,
                                   reduced.matrix.conj().T, atol=1e-12)

    def test_roundtrip_with_tensor_product(self, rng):
        a = random_density(rng, 1)
        b = random_density(rng, 2)
        joint = tensor_product(a, b)
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
        result = condition_on_ancilla(rho, 1, 1)
        np.testing.assert_allclose(result.matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_zero_probability_branch_errors(self):
        rho = StateVector.computational("00").density()
        with pytest.raises(ValueError, match="probability"):
            condition_on_ancilla(rho, 1, 1)


class TestProjectToPhysical:
    def test_physical_state_unchanged(self, rng):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(project_to_physical(rho).matrix,
                                   rho.matrix, atol=1e-12)

    def test_single_negative_eigenvalue(self):
        raw = DensityMatrix(1, np.diag([1.2, -0.2]), physical=False)
        np.testing.assert_allclose(project_to_physical(raw).matrix,
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_invariants_after_clipping(self):
        raw = DensityMatrix(2, np.diag([0.7, 0.5, -0.2, 0.0]), physical=False)
        projected = project_to_physical(raw)
        eigvals = np.linalg.eigvalsh(projected.matrix)
        assert eigvals.min() >= -1e-12
        assert projected.trace() == pytest.approx(1.0, abs=1e-10)
        assert projected.physical

    def test_closest_in_two_norm_beats_naive_clip(self):
        # eigenvalue clipping with redistribution: deficit spread over the
        # surviving eigenvalues, matching the known closest-state result
        raw = DensityMatrix(2, np.diag([0.7, 0.5, -0.2, 0.0]), physical=False)
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
