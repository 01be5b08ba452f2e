import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hetverify.protocols
import hetverify.tomography
from hetverify.circuits import Circuit, NoiseModel, run_statevector, sample_shots, seed_sequence
from hetverify.metrics import _pure_component, _pure_fidelities, fidelity
from hetverify.protocols import (
    BALANCED_ZETA,
    UNBALANCED_ZETA,
    _input_targets,
    _multi_mode_groups,
    _prep_gates,
    _pure_factors,
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
from hetverify.states import DensityMatrix, StateVector, _reduce, _trace_index, partial_trace
from hetverify.tomography import tomography_sweep

from conftest import marginals, random_density, random_pure, random_unphysical

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

    @pytest.mark.parametrize("pair", [(0.6, 0.8), (1j, 1), (0.0, 2.0)], ids=repr)
    def test_amplitude_array_prepares_as_its_tuple(self, pair):
        assert _prep_gates(np.array(pair), 0) == _prep_gates(pair, 0)

    @pytest.mark.parametrize("spec", [
        np.array([0]), np.array([1, 2, 3]), np.array([0, 0]),
        np.array([[0.6, 0.8], [0.8, 0.6]]), np.array([np.nan, 1.0]),
    ], ids=["one entry", "three entries", "zero norm", "two pairs", "nan"])
    def test_malformed_amplitude_array_rejected(self, spec):
        with pytest.raises(ValueError, match=r"cannot prepare array\("):
            _prep_gates(spec, 0)

    @pytest.mark.parametrize("initial", [
        "0101", [(0.0, 1.0), (2.0, 0.0), (0j, 1j), (-1.0, 0j)],
        [(0.6, 0.8j), "1", (1j, 0.5 + 0.5j), 0],
    ], ids=["bits", "zero component", "mixed"])
    def test_input_targets_are_the_prepared_amplitudes(self, initial):
        # Byte for byte the amplitudes run_statevector gives the prep gates.
        expected = np.array([run_statevector(Circuit(1, _prep_gates(spec, 0))).amplitudes
                             for spec in initial])
        got = _input_targets(initial)
        assert got.shape == (4, 2) and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


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
            witness = fidelity_witness([fidelity(m, t) for m, t in
                                        zip(marginals(rho), targets, strict=True)])
            product = StateVector(4, functools.reduce(
                np.kron, [t.amplitudes for t in targets]))
            if witness > fidelity(rho, product.density()) + 1e-8:
                violations += 1
        assert violations == 0

    def test_equals_one_iff_all_marginals_match(self):
        circuit = multi_mode_circuit("1100", UNBALANCED_ZETA)
        rho = ideal_output(circuit)
        targets = [StateVector(1, v / np.linalg.norm(v)) for v in (
            np.linalg.eigh(m.matrix)[1][:, -1]
            for m in (reduced(rho, q) for q in range(4)))]
        assert fidelity_witness([fidelity(m, t) for m, t in zip(marginals(rho), targets)]) \
            == pytest.approx(1.0, abs=1e-9)


def raw_hermitian(rng, num_qubits):
    """A Hermitian matrix with no other constraint: its trace is not one
    and it is not positive semi-definite."""
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DensityMatrix(num_qubits, (g + g.conj().T) / (2 * dim))


COPIES = {"physical": random_density, "unphysical": random_unphysical,
          "raw": raw_hermitian}


def single_qubits(n):
    return tuple((q,) for q in range(n))


def per_pair(rhos, targets):
    """The scores the stacked scorer replaces: each copy's traced marginal
    against each target, by `fidelity`, copy by copy."""
    return [[fidelity(partial_trace(rho, [q]), t)
             for q, t in zip(range(rho.num_qubits), targets, strict=True)]
            for rho in rhos]


def amplitude():
    """A complex amplitude of magnitude 0 or between 10^-151 and 10^150."""
    return st.one_of(st.just(0j), st.builds(
        lambda mantissa, exponent, phase: mantissa * 10.0**exponent * complex(
            math.cos(phase), math.sin(phase)),
        st.floats(0.1, 1.0), st.integers(-150, 150), st.floats(-PI, PI)))


QUBIT_SPECS = st.one_of(st.sampled_from(["0", "1"]),
                        st.tuples(amplitude(), amplitude()).filter(any))
ANGLES = st.floats(-1e6, 1e6)


def assert_product_target(circuit):
    """Every one-qubit marginal of the circuit's ideal output is pure:
    `_pure_factors` returns its vectors, not ValueError."""
    target = ideal_output(circuit)
    _pure_factors(_reduce(target.matrix, single_qubits(target.num_qubits)))


class TestStackedScoring:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           copy_kinds=st.lists(st.sampled_from(sorted(COPIES)), min_size=1, max_size=5))
    def test_matches_per_pair_fidelity(self, n, seed, copy_kinds):
        rng = np.random.default_rng(seed)
        rhos = [COPIES[kind](rng, n) for kind in copy_kinds]
        targets = [random_pure(rng) for _ in range(n)]
        stack = _reduce(np.stack([rho.matrix for rho in rhos]), single_qubits(n))
        scores = _pure_fidelities(stack, np.array([t.amplitudes for t in targets]))
        # Against each target as a vector and as a density, whose vector
        # `fidelity` finds by eigh.
        for form in (targets, [t.density() for t in targets]):
            np.testing.assert_allclose(scores, per_pair(rhos, form), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["vector", "pure"])
    def test_negative_overlap_scores_zero(self, kind):
        # -|0><0| on every qubit: each marginal has <0|m|0> = -1.
        rho = DensityMatrix(3, -StateVector.computational("000").density().matrix)
        target = StateVector.computational("0")
        target = target if kind == "vector" else target.density()
        vector = target.amplitudes if kind == "vector" else _pure_component(target)
        stack = _reduce(rho.matrix[None], single_qubits(3))
        scores = _pure_fidelities(stack, np.stack([vector] * 3))
        assert scores.tolist() == [[0.0] * 3] == per_pair([rho], [target] * 3)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(initial=st.lists(QUBIT_SPECS, min_size=4, max_size=4), zeta=ANGLES)
    def test_protocol2_targets_are_products(self, initial, zeta):
        assert_product_target(multi_mode_circuit(initial, zeta))
        assert_product_target(multi_mode_circuit(initial, complementary(zeta)))
        report = protocol2_run(initial, zeta, shots=None)
        assert len(report["groups"][0]["reduced_fidelities_ideal"]) == 4

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_protocol3_targets_are_products(self, data):
        m_modes = data.draw(st.integers(1, 4))
        n_photons = data.draw(st.integers(1, m_modes))
        angles = data.draw(st.lists(st.tuples(ANGLES, ANGLES, ANGLES),
                                    min_size=m_modes, max_size=m_modes))
        zeta = data.draw(ANGLES)
        assert_product_target(boson_sampling_circuit(n_photons, m_modes, angles, zeta))
        report = protocol3_verify(n_photons, m_modes, angles, zeta, shots=None)
        assert len(report["groups"][0]["reduced_fidelities_ideal"]) == m_modes

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["random", "0", "1"]), min_size=5, max_size=5))
    def test_pure_factors_recover_product_factors(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        factors = [random_pure(rng) if kind == "random" else StateVector.computational(kind)
                   for kind in kinds[:n]]
        product = functools.reduce(np.kron, [f.amplitudes for f in factors])
        got = _pure_factors(_reduce(np.outer(product, product.conj()), single_qubits(n)))
        overlaps = [abs(np.vdot(g, f.amplitudes)) for g, f in zip(got, factors, strict=True)]
        np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-12)

    def test_mixed_marginal_has_no_factor(self):
        stack = np.stack([StateVector.computational("0").density().matrix, np.eye(2) / 2])
        with pytest.raises(ValueError, match="not a product of pure qubit states"):
            _pure_factors(stack)

    @pytest.mark.parametrize("shots", [64, None], ids=["sampled", "exact"])
    @pytest.mark.parametrize("run,initial", [(protocol1_run, (0.6, 0.8j)),
                                             (protocol2_run, ["1", (0.6, 0.8j), "0", "1"])],
                             ids=["protocol1", "protocol2"])
    def test_runs_make_no_eigendecomposition(self, monkeypatch, run, initial, shots):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _f=original:
                                calls.append(_name) or _f(*args))
        run(initial, UNBALANCED_ZETA, (2, 1), shots=shots, seed=3,
            noise=NoiseModel(0.01, 0.02, 0.02))
        assert calls == []

    @pytest.mark.parametrize("shape", [(3, 2), (5, 2), (4,), (4, 2, 1)],
                             ids=["shorter", "longer", "flat", "extra-axis"])
    def test_input_target_shape_must_match(self, shape):
        circuit = multi_mode_circuit("1010", UNBALANCED_ZETA)
        inputs = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(
                f"need (4, 2) input target amplitudes, got shape {shape}")):
            _multi_mode_groups([(circuit, "N", UNBALANCED_ZETA, 1, 0)], inputs, None, None)

    @pytest.mark.parametrize("form", ["vector", "density"])
    def test_target_of_two_qubits_rejected(self, form):
        # Each qubit's input target given as a two-qubit state, as its
        # amplitudes or as its density: neither is a row of one qubit.
        two = StateVector.computational("00")
        row = two.amplitudes if form == "vector" else two.density().matrix
        inputs = np.stack([row] * 4)
        circuit = multi_mode_circuit("1010", UNBALANCED_ZETA)
        with pytest.raises(ValueError, match=re.escape(
                f"need (4, 2) input target amplitudes, got shape {inputs.shape}")):
            _multi_mode_groups([(circuit, "N", UNBALANCED_ZETA, 1, 0)], inputs, None, None)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_keep_set_matches_einsum(self, rng, n):
        rhos = np.stack([random_density(rng, n).matrix for _ in range(3)])
        tensor = rhos.reshape([3] + [2] * (2 * n))
        letters = "abcdefghijkl"
        for k in range(1, n + 1):
            keeps = tuple(itertools.combinations(range(n), k))
            reduced = _reduce(rhos, keeps)
            assert reduced.shape == (3, len(keeps), 2**k, 2**k)
            for s, keep in enumerate(keeps):
                rows = letters[:n]
                cols = "".join(letters[n + q] if q in keep else rows[q] for q in range(n))
                out = "".join(rows[q] for q in keep) + "".join(cols[q] for q in keep)
                expected = np.einsum(f"z{rows}{cols}->z{out}", tensor)
                np.testing.assert_allclose(reduced[:, s], expected.reshape(3, 2**k, 2**k),
                                           rtol=0, atol=1e-15)
                assert reduced[0, s].tobytes() == partial_trace(
                    DensityMatrix(n, rhos[0]), keep).matrix.tobytes()

    def test_index_is_cached_read_only_and_bounded(self):
        index = _trace_index(4, single_qubits(4))
        assert index.shape == (4, 2, 2, 8) and not index.flags.writeable
        assert _trace_index(4, single_qubits(4)) is index
        assert _trace_index.cache_info().maxsize == 32

    @pytest.mark.parametrize("copies,shots", [(3, 512), (2, None)])
    def test_group_matches_per_pair_scores(self, copies, shots):
        # Complex amplitudes, so a conjugated target vector would score wrong.
        initial = ["1", (0.6, 0.8j), "0", (1j, 0.5 + 0.5j)]
        circuit = multi_mode_circuit(initial, UNBALANCED_ZETA)
        noise = NoiseModel(0.01, 0.02, 0.02)
        inputs = _input_targets(initial)
        assert inputs.shape == (4, 2)
        (group,), recons, (target,) = _multi_mode_groups(
            [(circuit, "N", UNBALANCED_ZETA, copies, 5)], inputs, shots, noise)
        assert group["copy_fidelities"] == pytest.approx(
            [fidelity(rho, target.density()) for rho in recons], abs=1e-12, rel=0)
        ideal = [partial_trace(target.density(), [q]) for q in range(4)]
        for key, targets in (("reduced_fidelities_ideal", ideal),
                             ("reduced_fidelities_input", [StateVector(1, v) for v in inputs])):
            np.testing.assert_allclose(group[key], np.mean(per_pair(recons, targets), axis=0),
                                       rtol=0, atol=1e-12)


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

    def test_seed_sequence_is_not_advanced(self):
        parent = np.random.SeedSequence(5)
        first = protocol1_run("1", BALANCED_ZETA, (2, 2), shots=256, seed=parent)
        assert protocol1_run("1", BALANCED_ZETA, (2, 2), shots=256, seed=parent) == first
        assert parent.n_children_spawned == 0
        assert first == protocol1_run("1", BALANCED_ZETA, (2, 2), shots=256, seed=5)

    def test_copy_plan_validation(self):
        for run, initial in ((protocol1_run, "1"), (protocol2_run, "1100")):
            for copies in ((0, 5), (-1, 5)):
                with pytest.raises(ValueError, match="copy counts must be at least 1"):
                    run(initial, BALANCED_ZETA, copies, shots=None)

    @pytest.mark.parametrize("copies", [(2.0, 1), ("2", 1), (True, 1), (1, False),
                                        (2,), (1, 2, 3), 5, None], ids=repr)
    def test_copy_counts_must_be_integers(self, copies):
        for run, initial in ((protocol1_run, "1"), (protocol2_run, "1100")):
            with pytest.raises(ValueError, match="each an integer, got copies="):
                run(initial, BALANCED_ZETA, copies, shots=None)

    def test_numpy_integer_copy_counts(self):
        copies = (np.int64(2), np.int32(1))
        assert protocol1_run("1", BALANCED_ZETA, copies, shots=64, seed=3) \
            == protocol1_run("1", BALANCED_ZETA, (2, 1), shots=64, seed=3)


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

    def test_seed_sequence_is_not_advanced(self):
        parent = np.random.SeedSequence(5)
        first = protocol2_run("1100", BALANCED_ZETA, (1, 2), shots=64, seed=parent)
        assert protocol2_run("1100", BALANCED_ZETA, (1, 2), shots=64, seed=parent) == first
        assert parent.n_children_spawned == 0
        assert first == protocol2_run("1100", BALANCED_ZETA, (1, 2), shots=64, seed=5)

    def test_iterator_initial_is_read_once(self):
        # The specs are read for the circuits and for the input targets.
        assert protocol2_run(iter("1100"), UNBALANCED_ZETA, shots=None) \
            == protocol2_run("1100", UNBALANCED_ZETA, shots=None)

    @pytest.mark.parametrize("shots", [64, None], ids=["sampled", "exact"])
    def test_one_sweep_draws_as_one_sweep_per_group(self, monkeypatch, shots):
        """Both groups are swept and reconstructed in one call each, and
        the sweep draws the same tables, in the same order, as a sweep per
        group with that group's child seed would."""
        draws, sweeps = [], []

        def recording(probabilities, shots, seed, settings):
            table = sample_shots(probabilities, shots, seed, settings)
            draws.append((table.settings, table.counts.tobytes()))
            return table

        def sweeping(circuits, **kwargs):
            sweeps.append(len(circuits))
            return tomography_sweep(circuits, **kwargs)

        monkeypatch.setattr(hetverify.tomography, "sample_shots", recording)
        monkeypatch.setattr(hetverify.protocols, "tomography_sweep", sweeping)
        noise = NoiseModel(0.01, 0.02, 0.02)
        initial = ["1", (0.6, 0.8j), "0", "1"]
        protocol2_run(initial, UNBALANCED_ZETA, (3, 2), shots=shots, seed=9, noise=noise)
        assert sweeps == [5]
        merged = list(draws)
        draws.clear()
        for det, count, child in zip((UNBALANCED_ZETA, BALANCED_ZETA), (3, 2),
                                     seed_sequence(9).spawn(2)):
            tomography_sweep([multi_mode_circuit(initial, det)] * count, shots=shots,
                             seeds=seed_sequence(child).spawn(count), noise=noise)
        assert merged == draws and len(draws) == (5 if shots else 0)

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

    def test_seed_sequence_is_not_advanced(self):
        parent = np.random.SeedSequence(5)
        first = protocol3_verify(m_modes=2, n_photons=1, shots=64, seed=parent)
        assert protocol3_verify(m_modes=2, n_photons=1, shots=64, seed=parent) == first
        assert parent.n_children_spawned == 0
        assert first == protocol3_verify(m_modes=2, n_photons=1, shots=64, seed=5)

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

    @pytest.mark.parametrize("counts", [(2.0, 4), (2, 4.0), (True, 4), ("2", 4),
                                        (2, True), (None, 4)], ids=repr)
    def test_photon_and_mode_counts_must_be_integers(self, counts):
        message = "need 1 <= n_photons <= m_modes, both integers, got n_photons="
        with pytest.raises(ValueError, match=message):
            protocol3_verify(*counts, shots=None)
        with pytest.raises(ValueError, match=message):
            boson_sampling_circuit(*counts, [(0, 0, 0)] * 4, UNBALANCED_ZETA)

    def test_numpy_integer_photon_and_mode_counts(self):
        assert protocol3_verify(np.int64(1), np.int32(2), shots=64, seed=3) \
            == protocol3_verify(1, 2, shots=64, seed=3)
        assert boson_sampling_circuit(np.int8(2), np.int64(4), [(0, 0, 0)] * 4, 0.0) \
            == boson_sampling_circuit(2, 4, [(0, 0, 0)] * 4, 0.0)

    @pytest.mark.parametrize("angles", [[(0, 0, 0)], [(0, 0, 0)] * 5, [(0, 0)] * 4,
                                        [(0, 0, 0, 0)] * 4, [("a", 0, 0)] * 4,
                                        [None] * 4, 7],
                             ids=["one", "five", "pairs", "quadruples", "text", "none",
                                  "int"])
    def test_interferometer_needs_one_triple_per_mode(self, angles):
        with pytest.raises(ValueError, match="need 4 interferometer angle triples"):
            protocol3_verify(2, 4, interferometer_angles=angles, shots=None)

    def test_circuit_layout(self):
        circuit = boson_sampling_circuit(
            2, 4, [(PI / 2, PI / 2, PI / 2)] * 4,
            UNBALANCED_ZETA)
        assert circuit.num_qubits == 5 and circuit.ancilla == 4
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["x", "x", "u3", "u3", "u3", "u3", "x",
                         "cu3", "cu3", "cu3", "cu3"]
