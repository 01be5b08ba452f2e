"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as
a checklist.  Reference values marked "cross-implementation" come from
an independent 8192-shot run of the same experiments on another
simulator and are matched loosely (+-0.02); exact-backend values are
matched to analytic results.
"""
import functools
import math
import time

import numpy as np

from hetverify.circuits import NoiseModel
from hetverify.cli import EXIT_REJECT, main
from hetverify.metrics import fidelity
from hetverify.protocols import (
    BALANCED_ZETA,
    UNBALANCED_ZETA,
    bound_check,
    boson_sampling_circuit,
    ideal_output,
    multi_mode_circuit,
    protocol1_run,
    protocol2_run,
    protocol3_verify,
    single_mode_circuit,
    fidelity_witness,
)
from hetverify.qkd import (
    BALANCED_QKD_ZETA,
    BELL_PAIR_ORDER,
    SINGLE_PAIR_ORDER,
    bell_qkd_circuit,
    qkd_table,
    single_qkd_circuit,
)
from hetverify.reference_data import (
    HARDWARE_BELL_QKD,
    HARDWARE_PROTOCOL_SUMMARY,
    HARDWARE_SINGLE_QKD,
    hardware_reference,
)
from hetverify.states import StateVector
from hetverify.metrics import trace_distance
from hetverify.tomography import (
    reconstruct_multi_qubit,
    tomography_sweep,
)

from conftest import cell, marginals, random_density, random_pure

PI = math.pi
SQRT_HALF = 1 / np.sqrt(2)
_SUITE_START = time.perf_counter()

# Cross-implementation 8192-shot single-qubit tables: rows follow
# SINGLE_PAIR_ORDER, columns are (pi/3, pi/2, simple).  None marks a
# column entry that the source run reported inconsistently and that the
# exact backend supersedes.
REFERENCE_SINGLE_0 = [
    (0.8662, None, 1.0000),
    (0.2608, None, 0.7087),
    (0.2647, None, 0.7075),
    (0.2532, None, 0.7041),
    (0.8686, None, 1.0000),
    (0.7074, None, 0.7067),
    (0.7088, None, 0.7076),
    (0.7050, None, 0.7137),
    (0.8638, None, 1.0000),
]
REFERENCE_SINGLE_1 = [
    (0.8649, 0.7110, 1.0000),
    (0.2646, 0.0000, 0.7050),
    (0.2627, 0.0000, 0.7096),
    (0.2588, 0.0000, 0.7025),
    (0.8660, 0.7078, 1.0000),
    (0.7120, 0.7018, 0.7092),
    (0.7000, 0.6993, 0.7053),
    (0.7032, 0.7021, 0.6996),
    (0.8666, 0.7075, 1.0000),
]
REFERENCE_BELL = [
    (0.7550, 1.0000),
    (0.4369, 0.0001),
    (0.4316, 0.0001),
    (0.2500, 0.0001),
]


def _report(number, name, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {number}: {name}"


def _table_matches(table, reference, pair_order, modes, atol):
    for pair, row in zip(pair_order, reference):
        for mode, expected in zip(modes, row):
            if expected is None:
                continue
            if abs(cell(table, pair, mode) - expected) > atol:
                return False
    return True


class TestAcceptance:
    def test_criterion_1_single_qkd_table(self):
        start = time.perf_counter()
        exact = qkd_table("0", shots=None)
        ok = math.isclose(cell(exact, ("z", "z"), "pi/3"), math.cos(PI / 6),
                          abs_tol=1e-4)
        ok &= math.isclose(cell(exact, ("z", "x"), "pi/3"), 0.2588,
                           abs_tol=1e-4)
        ok &= math.isclose(cell(exact, ("x", "x"), "simple"), 1.0,
                           abs_tol=1e-9)
        ok &= math.isclose(cell(exact, ("z", "y"), "simple"), SQRT_HALF,
                           abs_tol=1e-4)
        modes = ("pi/3", "pi/2", "simple")
        sampled_0 = qkd_table("0", shots=8192, seed=0)
        sampled_1 = qkd_table("1", shots=8192, seed=0)
        ok &= _table_matches(sampled_0, REFERENCE_SINGLE_0,
                             SINGLE_PAIR_ORDER, modes, atol=0.02)
        ok &= _table_matches(sampled_1, REFERENCE_SINGLE_1,
                             SINGLE_PAIR_ORDER, modes, atol=0.02)
        ok &= (time.perf_counter() - start) < 5.0
        _report(1, "single-qubit basis table, exact and 8192-shot", ok)

    def test_criterion_2_bell_qkd_table(self):
        start = time.perf_counter()
        exact = qkd_table("00", shots=None)
        expected = [0.75, 0.4330127, 0.4330127, 0.25]
        ok = all(math.isclose(cell(exact, p, "pi/3"), v, abs_tol=1e-4)
                 for p, v in zip(BELL_PAIR_ORDER, expected))
        simple = [1.0, 0.0, 0.0, 0.0]
        ok &= all(math.isclose(cell(exact, p, "simple"), v, abs_tol=1e-6)
                  for p, v in zip(BELL_PAIR_ORDER, simple))
        sampled = qkd_table("00", shots=8192, seed=0)
        ok &= _table_matches(sampled, REFERENCE_BELL, BELL_PAIR_ORDER,
                             ("pi/3", "simple"), atol=0.02)
        ok &= (time.perf_counter() - start) < 10.0
        _report(2, "Bell basis table, exact and 8192-shot", ok)

    def test_criterion_3_separation_claim(self):
        table = qkd_table("0", shots=None)
        matched = [("z", "z"), ("x", "x"), ("y", "y")]
        mismatch = [("z", "x"), ("z", "y"), ("x", "z")]
        gap_balanced = (min(cell(table, p, "pi/3") for p in matched)
                        - max(cell(table, p, "pi/3") for p in mismatch))
        gap_simple = (min(cell(table, p, "simple") for p in matched)
                      - max(cell(table, p, "simple") for p in mismatch))
        _report(3, "balanced-detection gap at least 1.9x the simple gap",
                gap_balanced >= 1.9 * gap_simple)

    def test_criterion_4_inequality_chains(self):
        fvg, tvd_chain = bound_check(0.6918, 0.3722, 0.1514)
        ok = (round(fvg["lhs"], 4), round(fvg["mid"], 4), round(fvg["rhs"], 4)) == \
            (0.3082, 0.3722, 0.7221)
        ok &= (round(tvd_chain["lhs"], 4), round(tvd_chain["mid"], 4)) == \
            (0.1514, 0.3722)
        ok &= abs(tvd_chain["rhs"] - 0.5551) < 1e-4
        ok &= fvg["holds"] and tvd_chain["holds"]
        _report(4, "distance bound chains at 4-decimal agreement", ok)

    def test_criterion_5_noiseless_protocols_and_reject_path(self, tmp_path):
        r1 = protocol1_run("1", UNBALANCED_ZETA, (3, 3), shots=None)
        ok = all(abs(f - 1.0) < 1e-9
                 for g in r1["groups"] for f in g["copy_fidelities"])
        r2 = protocol2_run("1100", BALANCED_ZETA, (1, 1), shots=None)
        ok &= abs(r2["global_fidelity"] - 1.0) < 1e-9
        ok &= abs(r2["groups"][0]["witness_ideal"] - 1.0) < 1e-9
        r3 = protocol3_verify(shots=None, threshold=0.6)
        ok &= abs(r3["global_fidelity"] - 1.0) < 1e-9
        ok &= abs(r3["groups"][0]["witness_ideal"] - 1.0) < 1e-9
        ok &= r3["verdict"] == "accept"
        noisy = protocol3_verify(shots=None, threshold=0.6,
                                 noise=NoiseModel(0.3, 0.3))
        ok &= noisy["global_fidelity"] < 0.6 and noisy["verdict"] == "reject"
        code = main(["protocol3", "--exact", "--noise-1q", "0.3",
                     "--noise-2q", "0.3", "--output-dir", str(tmp_path)])
        ok &= code == EXIT_REJECT
        _report(5, "protocols 1-3 exact fidelity/witness 1; noise rejects "
                   "with exit code 2", ok)

    def test_criterion_6_fock_target_witness(self):
        report = protocol3_verify(shots=None)
        reduced = report["groups"][0]["reduced_fidelities_input"]
        ok = all(abs(f - SQRT_HALF) < 1e-6 for f in reduced)
        ok &= abs(report["witness"] - (1 - 4 * (1 - SQRT_HALF))) < 1e-6
        _report(6, "ideal photon-number witness -0.1716, marginals 0.7071", ok)

    def test_criterion_7_tomography_oracle_equivalence(self):
        circuits = [
            single_qkd_circuit("0", "z", "x", BALANCED_QKD_ZETA),
            single_mode_circuit("1", UNBALANCED_ZETA),
            single_mode_circuit((0.6, 0.8), BALANCED_ZETA),
            bell_qkd_circuit("b00", "b10", BALANCED_QKD_ZETA),
            multi_mode_circuit("1100", UNBALANCED_ZETA),
            boson_sampling_circuit(2, 4, [(PI / 2, PI / 2, PI / 2)] * 4,
                                   UNBALANCED_ZETA),
        ]
        ok = True
        for circuit in circuits:
            ex = tomography_sweep(circuit, shots=None)
            rho = reconstruct_multi_qubit(ex, len(circuit.system_qubits))
            ok &= trace_distance(rho, ideal_output(circuit)) < 1e-10
        five = circuits[-1]
        expected = ideal_output(five)
        distances = []
        for seed in range(20):
            ex = tomography_sweep(five, shots=8192, seed=seed)
            distances.append(trace_distance(
                reconstruct_multi_qubit(ex, 4), expected))
        ok &= float(np.median(distances)) < 0.05
        _report(7, "exact reconstruction < 1e-10; 8192-shot median trace "
                   "distance < 0.05", ok)

    def test_criterion_8_witness_lower_bound(self):
        rng = np.random.default_rng(2024)
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
        _report(8, "witness lower-bounds global fidelity on 500 random "
                   "instances", violations == 0)

    def test_criterion_9_hardware_fixtures_display_only(self):
        p1 = HARDWARE_PROTOCOL_SUMMARY["protocol1"]["copies_1_to_5"]
        ok = p1 == {"mean_fidelity": 0.9343, "std": 0.0108}
        p2 = HARDWARE_PROTOCOL_SUMMARY["protocol2"]["unbalanced"]
        ok &= p2["global_fidelity"] == 0.6983 and p2["witness"] == -0.1580
        ok &= HARDWARE_PROTOCOL_SUMMARY["protocol3"]["unbalanced"][
            "witness"] == -2.108
        ok &= HARDWARE_SINGLE_QKD["0"][("z", "z")][0] == 0.8698
        ok &= HARDWARE_BELL_QKD[("b00", "b00")][0] == 0.7458
        # fixtures are marked non-reproducible and surface in reports
        block = hardware_reference("qkd-single", "0")
        ok &= block is not None and block["reproducible"] is False
        ok &= block["rows"]["z-z"][0] == 0.8698
        # no simulated quantity is asserted against the hardware numbers:
        # the exact backend diverges from them by design
        exact = qkd_table("0", shots=None)
        ok &= abs(cell(exact, ("z", "z"), "simple")
                  - HARDWARE_SINGLE_QKD["0"][("z", "z")][2]) > 1e-4
        _report(9, "hardware columns shipped as display-only fixtures", ok)

    def test_criterion_10_performance(self):
        circuit = boson_sampling_circuit(
            2, 4, [(PI / 2, PI / 2, PI / 2)] * 4,
            UNBALANCED_ZETA)
        start = time.perf_counter()
        tomography_sweep(circuit, shots=8192, seed=0)
        sweep_time = time.perf_counter() - start
        suite_time = time.perf_counter() - _SUITE_START
        ok = sweep_time < 2.0 and suite_time < 120.0
        _report(10, f"sweep {sweep_time:.2f}s < 2s, suite "
                    f"{suite_time:.1f}s < 120s", ok)
