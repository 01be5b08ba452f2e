import itertools
import re

import numpy as np
import pytest

from hetverify.circuits import measure_in_basis
from hetverify.metrics import (
    _pure_component,
    fidelity,
    matrix_sqrt_psd,
    total_variation_distance,
    trace_distance,
)
from hetverify.states import PROB_ATOL, DensityMatrix, StateVector

from conftest import random_density, random_pure, random_unphysical

KINDS = {
    "pure": lambda rng, n: random_pure(rng, n).density(),
    "mixed": random_density,
    "unphysical": random_unphysical,
}

SQRT_HALF = 1 / np.sqrt(2)


def ket(bits):
    return StateVector.computational(bits).density()


def plus():
    return StateVector(1, np.array([1, 1]) / np.sqrt(2)).density()


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]))

    def test_projector_is_own_root(self):
        proj = plus().matrix
        np.testing.assert_allclose(matrix_sqrt_psd(proj), proj, atol=1e-12)

    def test_reconstructs_random_psd(self, rng):
        for num_qubits in (1, 2, 3, 4, 5):
            rho = random_density(rng, num_qubits)
            root = matrix_sqrt_psd(rho.matrix)
            np.testing.assert_allclose(root @ root, rho.matrix, atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            matrix_sqrt_psd(np.diag([1.0, -0.1]))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        rho = random_density(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        assert fidelity(ket("0"), ket("1")) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        assert fidelity(ket("0"), plus()) == pytest.approx(SQRT_HALF, abs=1e-10)

    def test_mixed_vs_pure(self):
        assert fidelity(DensityMatrix(1, np.eye(2) / 2), ket("0")) == \
            pytest.approx(SQRT_HALF, abs=1e-10)

    def test_symmetric_for_physical_states(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_unphysical_input_can_exceed_one(self):
        raw = DensityMatrix(1, np.diag([1.2, -0.2]))
        assert fidelity(raw, ket("0")) == pytest.approx(np.sqrt(1.2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(ket("0"), ket("00"))


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(rng, 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert trace_distance(ket("0"), ket("1")) == pytest.approx(1.0)

    def test_pure_state_formula(self):
        assert trace_distance(ket("0"), plus()) == pytest.approx(SQRT_HALF)


class TestTotalVariationDistance:
    def test_identical(self):
        p = np.array([0.3, 0.7])
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint(self):
        assert total_variation_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_sum(self):
        assert total_variation_distance([0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.25)

    def test_mismatched_outcomes(self):
        with pytest.raises(ValueError, match=re.escape("shapes (2,) and (4,)")):
            total_variation_distance([0.5, 0.5], [0.25] * 4)
        with pytest.raises(ValueError, match="one length"):
            total_variation_distance([], [])

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 2, 2)],
                             ids=["1x2", "2x2", "2x2x2"])
    def test_stacked_input_rejected(self, shape):
        stack = np.full(shape, 1 / shape[-1])
        with pytest.raises(ValueError, match="probability vectors of one length"):
            total_variation_distance(stack, stack)
        with pytest.raises(ValueError, match="probability vectors of one length"):
            total_variation_distance(stack.reshape(-1)[:2], stack)

    def test_small_negatives_clipped(self):
        p = [-PROB_ATOL / 2, 1.0]
        assert total_variation_distance(p, [0.0, 1.0]) == 0.0
        assert total_variation_distance([1.0, 0.0], p) == 1.0

    @pytest.mark.parametrize("bad,problem", [
        ([-0.1, 1.1], "negative or NaN probability: -0.1"),
        ([0.5, 0.4], "probabilities sum to 0.9"),
        ([0.5, 0.5 + 2 * PROB_ATOL], "probabilities sum to"),
        ([np.nan, 1.0], "negative or NaN probability: nan"),
    ], ids=["negative", "short", "long", "nan"])
    def test_bad_vector_is_named(self, bad, problem):
        good = [0.25, 0.75]
        with pytest.raises(ValueError, match="^" + re.escape(f"p: {problem}")):
            total_variation_distance(bad, good)
        with pytest.raises(ValueError, match="^" + re.escape(f"q: {problem}")):
            total_variation_distance(good, bad)

    def test_single_vector_error_has_no_row_label(self):
        with pytest.raises(ValueError, match="^p: negative or NaN probability") as err:
            total_variation_distance([-0.1, 1.1], [0.5, 0.5])
        assert "row" not in str(err.value)


class TestMetricAxiomsFuzz:
    """Random-state sweeps of the axioms and inequality chains."""

    CASES = 1000

    def test_axioms_and_inequalities(self, rng):
        for i in range(self.CASES):
            n = 1 + i % 3
            a, b = random_density(rng, n), random_density(rng, n)
            f = fidelity(a, b)
            d = trace_distance(a, b)
            assert -1e-10 <= f <= 1 + 1e-10
            assert -1e-12 <= d <= 1 + 1e-12
            # Fuchs-van de Graaf chain
            assert 1 - f <= d + 1e-8
            assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-8
            # measurement is a contraction
            tvd = total_variation_distance(*measure_in_basis([a, b], ["Z" * n])[:, 0])
            assert tvd <= d + 1e-10

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            a, b, c = (random_density(rng, 2) for _ in range(3))
            assert trace_distance(a, c) <= \
                trace_distance(a, b) + trace_distance(b, c) + 1e-10


def fidelity_oracle(a, b):
    """fidelity as it was while its pure shortcut also asked whether the
    target was physical."""
    for target, other in ((b, a), (a, b)):
        if target.physical:
            vec = _pure_component(target)
            if vec is not None:
                overlap = float(np.real(vec.conj() @ other.matrix @ vec))
                return float(np.sqrt(max(overlap, 0.0)))
    sqrt_a = matrix_sqrt_psd(a.matrix)
    inner = sqrt_a @ b.matrix @ sqrt_a
    return float(np.trace(matrix_sqrt_psd(inner)).real)


def outcome(score, a, b):
    """The score, or the message of the ValueError it raised."""
    try:
        return score(a, b)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_fidelity_matches_physical_first_rule(rng, num_qubits):
    for kind_a, kind_b in itertools.product(KINDS, repeat=2):
        for _ in range(3):
            a = KINDS[kind_a](rng, num_qubits)
            b = KINDS[kind_b](rng, num_qubits)
            assert outcome(fidelity, a, b) == outcome(fidelity_oracle, a, b), (
                kind_a, kind_b)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_computational_vector_target_scores_as_its_density(rng, num_qubits):
    # 6,000 random Hermitian matrices per size, spread over its
    # computational targets: 12,000 scores in all, each byte for byte the
    # score against the target's density, the eigendecomposition path.
    dim = 2**num_qubits
    per_target = 12_000 // (2 * dim)
    for bits in itertools.product("01", repeat=num_qubits):
        target = StateVector.computational("".join(bits))
        for _ in range(per_target):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = DensityMatrix(num_qubits, (g + g.conj().T) / 2)
            assert fidelity(a, target).hex() == fidelity(a, target.density()).hex()


FORMS = {
    "vector": random_pure,
    "pure": lambda rng, n: random_pure(rng, n).density(),
    "mixed": random_density,
}


def as_density(state):
    return state.density() if isinstance(state, StateVector) else state


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("form_a,form_b", itertools.product(FORMS, repeat=2))
def test_state_vector_on_either_side(rng, num_qubits, form_a, form_b):
    for _ in range(5):
        a, b = FORMS[form_a](rng, num_qubits), FORMS[form_b](rng, num_qubits)
        for x, y in ((a, b), (b, a)):
            assert fidelity(x, y) == pytest.approx(
                fidelity(as_density(x), as_density(y)), abs=1e-12)
            assert trace_distance(x, y) == pytest.approx(
                trace_distance(as_density(x), as_density(y)), abs=1e-12)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
        if form_a == form_b == "vector":
            assert fidelity(a, b) == abs(np.vdot(a.amplitudes, b.amplitudes))


def test_density_against_vector_keeps_its_formula(rng, monkeypatch):
    # The path that scores QKD cells: no eigendecomposition, and the bytes
    # of sqrt(max(Re <s|a|s>, 0)).
    pairs = [(KINDS[kind](rng, n), random_pure(rng, n))
             for kind, n in itertools.product(KINDS, [1, 2, 3]) for _ in range(5)]
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, None)
    for a, target in pairs:
        vec = target.amplitudes
        expected = float(np.sqrt(max(float(np.real(vec.conj() @ a.matrix @ vec)), 0.0)))
        assert fidelity(a, target).hex() == expected.hex()


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_vector_target_scores_as_its_density(rng, num_qubits):
    for kind in KINDS:
        for _ in range(5):
            a, target = KINDS[kind](rng, num_qubits), random_pure(rng, num_qubits)
            assert fidelity(a, target) == pytest.approx(
                fidelity(a, target.density()), abs=1e-12), kind
