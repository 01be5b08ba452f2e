import itertools
import re

import numpy as np
import pytest
from scipy.linalg import sqrtm

from hetverify.circuits import measure_in_basis
from hetverify.metrics import fidelity, total_variation_distance, trace_distance
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


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        rho = random_pure(rng, 2).density()
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        assert fidelity(ket("0"), ket("1")) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        assert fidelity(ket("0"), plus()) == pytest.approx(SQRT_HALF, abs=1e-10)

    def test_mixed_vs_pure(self):
        assert fidelity(DensityMatrix(1, np.eye(2) / 2), ket("0")) == \
            pytest.approx(SQRT_HALF, abs=1e-10)

    def test_symmetric_for_physical_states(self, rng):
        a, b = random_density(rng, 2), random_pure(rng, 2).density()
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
            a, b = random_density(rng, n), random_pure(rng, n).density()
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


def trap(rng, num_qubits):
    """diag(2/3, 2/3, -1/3, 0, ...): trace one and Tr rho^2 = 1, but rank
    three.  No 2 x 2 matrix is such a trap, so one qubit has none."""
    diagonal = [2 / 3, 2 / 3, -1 / 3] + [0] * (2**num_qubits - 3)
    return DensityMatrix(num_qubits, np.diag(diagonal))


# Each kind of input; a pure one as its StateVector, which the oracle reads.
STATES = {"pure": random_pure, "mixed": random_density,
          "unphysical": random_unphysical, "trap": trap}


def as_density(state):
    return state.density() if isinstance(state, StateVector) else state


def uhlmann(pure, other):
    """Oracle: the Uhlmann fidelity Tr sqrt(X^H other X) for X with X X^H
    the pure state, its real part where `other` is not a state.  X is the
    StateVector's amplitudes, so the root is of a 1 x 1 matrix.  X =
    sqrtm(|s><s|) would not do: a float |s><s| is rank one only up to
    rounding, and sqrtm turns its ~1e-17 eigenvalues into errors of ~3e-9."""
    x = pure.amplitudes[:, None]
    return float(np.trace(sqrtm(x.conj().T @ as_density(other).matrix @ x)).real)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_fidelity_matches_physical_first_rule(rng, num_qubits):
    # With a pure side, the Uhlmann fidelity against it, in both argument
    # orders; with none, ValueError.
    kinds = [kind for kind in STATES if num_qubits > 1 or kind != "trap"]
    for kind_a, kind_b in itertools.product(kinds, repeat=2):
        for _ in range(3):
            a, b = STATES[kind_a](rng, num_qubits), STATES[kind_b](rng, num_qubits)
            pairs = ((as_density(a), as_density(b)), (as_density(b), as_density(a)))
            if "pure" in (kind_a, kind_b):
                expected = uhlmann(a, b) if kind_a == "pure" else uhlmann(b, a)
                for x, y in pairs:
                    assert fidelity(x, y) == pytest.approx(expected, abs=1e-12), (
                        kind_a, kind_b)
            else:
                for x, y in pairs:
                    with pytest.raises(ValueError,
                                       match="^fidelity needs a pure state on one side$"):
                        fidelity(x, y)


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


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("form_a,form_b", itertools.product(FORMS, repeat=2))
def test_state_vector_on_either_side(rng, num_qubits, form_a, form_b):
    for _ in range(5):
        a, b = FORMS[form_a](rng, num_qubits), FORMS[form_b](rng, num_qubits)
        for x, y in ((a, b), (b, a)):
            assert trace_distance(x, y) == pytest.approx(
                trace_distance(as_density(x), as_density(y)), abs=1e-12)
            if form_a == form_b == "mixed":
                with pytest.raises(ValueError, match="pure state on one side"):
                    fidelity(x, y)
                continue
            assert fidelity(x, y) == pytest.approx(
                fidelity(as_density(x), as_density(y)), abs=1e-12)
            assert fidelity(x, y) == pytest.approx(fidelity(y, x), abs=1e-10)
        if form_a == form_b == "vector":
            assert fidelity(a, b) == abs(np.vdot(a.amplitudes, b.amplitudes))


def test_density_against_vector_keeps_its_formula(rng, monkeypatch):
    # The path that scores QKD cells: no eigendecomposition, and the bytes
    # of sqrt(max(Re <s|a|s>, 0)).  No other form of the inputs decomposes
    # a matrix either: a pure density on either side, or none.
    pairs = [(KINDS[kind](rng, n), random_pure(rng, n))
             for kind, n in itertools.product(KINDS, [1, 2, 3]) for _ in range(5)]
    mixed = [(random_density(rng, n), random_density(rng, n)) for n in [1, 2, 3]]
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, None)
    for a, target in pairs:
        vec = target.amplitudes
        expected = float(np.sqrt(max(float(np.real(vec.conj() @ a.matrix @ vec)), 0.0)))
        assert fidelity(a, target).hex() == expected.hex()
        density = target.density()
        for x, y in ((a, density), (density, a), (target, a)):
            assert fidelity(x, y) == pytest.approx(expected, abs=1e-12)
    for a, b in mixed:
        with pytest.raises(ValueError, match="pure state on one side"):
            fidelity(a, b)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_vector_target_scores_as_its_density(rng, num_qubits):
    for kind in KINDS:
        for _ in range(5):
            a, target = KINDS[kind](rng, num_qubits), random_pure(rng, num_qubits)
            assert fidelity(a, target) == pytest.approx(
                fidelity(a, target.density()), abs=1e-12), kind
