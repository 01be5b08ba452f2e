import math

import numpy as np
import pytest

from hetverify.circuits import cu3, run_statevector, u3, x
from hetverify.qkd import (
    BALANCED_QKD_ZETA,
    BELL_LABELS,
    BELL_PAIR_ORDER,
    SINGLE_PAIR_ORDER,
    _bell_encode_gates,
    bell_qkd_circuit,
    mode_label,
    qkd_bell_run,
    qkd_single_run,
    qkd_table,
    single_qkd_circuit,
    threshold_verdict,
)

PI = math.pi
SQRT_HALF = 1 / np.sqrt(2)
COS_PI_6 = math.cos(PI / 6)          # matched fidelity at zeta=pi/3
MISMATCH_PI_3 = 0.258819             # |cos(pi/6) - sin(pi/6)| / sqrt(2)


class TestMatchedPairs:
    @pytest.mark.parametrize("basis", ["z", "x", "y"])
    def test_simple_identity(self, basis):
        assert qkd_single_run("0", basis, basis, "simple") == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("basis", ["z", "x", "y"])
    @pytest.mark.parametrize("initial", ["0", "1"])
    def test_balanced_detection_value(self, basis, initial):
        value = qkd_single_run(initial, basis, basis, BALANCED_QKD_ZETA)
        assert value == pytest.approx(COS_PI_6, abs=1e-10)

    def test_matched_circuit_is_identity_up_to_phase(self):
        for basis in ("z", "x", "y"):
            circuit = single_qkd_circuit("0", basis, basis, "simple")
            state = run_statevector(circuit)
            assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("initial", ["0", "1", 0, 1])
    def test_scored_against_the_prepared_state(self, initial):
        assert qkd_single_run(initial, "z", "z", "simple") == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("initial", ["2", 2, "", "01", (0.6, 0.8), None])
    def test_other_initial_rejected(self, initial):
        # Only |0> and |1> are scored against their own preparation.
        with pytest.raises(ValueError, match="initial must be '0' or '1'"):
            qkd_single_run(initial, "z", "z", "simple")
        with pytest.raises(ValueError, match="initial must be '0' or '1'"):
            qkd_table(initial=initial, shots=None)


class TestMismatchedPairs:
    @pytest.mark.parametrize("pair", [("z", "x"), ("z", "y"), ("x", "z")])
    def test_strong_mismatch_balanced(self, pair):
        value = qkd_single_run("0", *pair, BALANCED_QKD_ZETA)
        assert value == pytest.approx(MISMATCH_PI_3, abs=1e-6)

    @pytest.mark.parametrize("pair", [("z", "x"), ("z", "y"), ("x", "z"),
                                      ("x", "y"), ("y", "z"), ("y", "x")])
    def test_simple_mismatch(self, pair):
        value = qkd_single_run("0", *pair, "simple")
        assert value == pytest.approx(SQRT_HALF, abs=1e-10)

    @pytest.mark.parametrize("pair", [("x", "y"), ("y", "z"), ("y", "x")])
    def test_weak_mismatch_stays_high_balanced(self, pair):
        value = qkd_single_run("0", *pair, BALANCED_QKD_ZETA)
        assert value == pytest.approx(SQRT_HALF, abs=1e-6)


class TestBellPairs:
    def test_matched_simple(self):
        assert qkd_bell_run("b00", "b00", "simple") == \
            pytest.approx(1.0, abs=1e-10)

    def test_balanced_values(self):
        expected = {"b00": 0.75, "b01": 0.4330127, "b10": 0.4330127,
                    "b11": 0.25}
        for decode, value in expected.items():
            assert qkd_bell_run("b00", decode, BALANCED_QKD_ZETA) == \
                pytest.approx(value, abs=1e-6), decode

    def test_mismatched_simple_vanishes(self):
        for decode in ("b01", "b10", "b11"):
            assert qkd_bell_run("b00", decode, "simple") == \
                pytest.approx(0.0, abs=1e-9)

    def test_decoder_inverts_encoder(self):
        for label in ("b00", "b01", "b10", "b11"):
            circuit = bell_qkd_circuit(label, label, "simple")
            state = run_statevector(circuit)
            assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)


def _explicit_bell_decoder(label):
    """The hand-written decoder: undo the Pauli frame, then disentangle."""
    a, b = int(label[1]), int(label[2])
    gates = []
    if b:
        gates.append(x(1))
    if a:
        gates.append(u3(0, 0.0, 0.0, PI))
    return gates + [cu3(0, 1, PI, 0.0, PI), u3(0, PI / 2, 0.0, PI)]


@pytest.mark.parametrize("encode", BELL_LABELS)
@pytest.mark.parametrize("decode", BELL_LABELS)
def test_bell_decoder_is_reversed_encoder(encode, decode):
    circuit = bell_qkd_circuit(encode, decode, "simple")
    assert list(circuit.gates) == (_bell_encode_gates(encode)
                                   + _explicit_bell_decoder(decode))


class TestQkdTable:
    def test_exact_single_table_values(self):
        table = qkd_table("0", shots=None)
        assert table.value(("z", "z"), "pi/3") == pytest.approx(COS_PI_6)
        assert table.value(("z", "x"), "simple") == pytest.approx(SQRT_HALF)
        assert table.value(("y", "y"), "simple") == pytest.approx(1.0)

    def test_exact_bell_table(self):
        table = qkd_table(initial="00", kind="bell", shots=None)
        values = [table.value(p, "pi/3") for p in BELL_PAIR_ORDER]
        np.testing.assert_allclose(values, [0.75, 0.4330127, 0.4330127, 0.25],
                                   atol=1e-6)

    def test_sampled_within_shot_noise(self):
        exact = qkd_table("0", shots=None)
        for seed in range(5):
            sampled = qkd_table("0", shots=8192, seed=seed)
            for pair in SINGLE_PAIR_ORDER:
                for mode in sampled.modes:
                    assert abs(sampled.value(pair, mode)
                               - exact.value(pair, mode)) < 0.02

    def test_seed_determinism(self):
        a = qkd_table("0", shots=2048, seed=9)
        b = qkd_table("0", shots=2048, seed=9)
        assert a.rows == b.rows

    def test_csv_export_row_order(self, tmp_path):
        table = qkd_table("0", shots=None)
        path = tmp_path / "table.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        pairs = [line.split(",")[0] for line in lines[1:]]
        assert pairs == ["z-z", "z-x", "z-y", "x-z", "x-x", "x-y",
                         "y-z", "y-x", "y-y"]

    def test_mode_labels(self):
        assert mode_label("simple") == "simple"
        assert mode_label(PI / 3) == "pi/3"
        assert mode_label(PI / 2) == "pi/2"


class TestThresholdVerdict:
    def test_balanced_default_accepts_only_matched(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, BALANCED_QKD_ZETA)
        accepted = {p for p, v in verdicts.items() if v == "accept"}
        assert accepted == {("z", "z"), ("x", "x"), ("y", "y")}

    def test_simple_default_accepts_only_matched(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, "simple")
        accepted = {p for p, v in verdicts.items() if v == "accept"}
        assert accepted == {("z", "z"), ("x", "x"), ("y", "y")}

    def test_bell_defaults(self):
        table = qkd_table(initial="00", kind="bell", shots=None)
        balanced = threshold_verdict(table, BALANCED_QKD_ZETA)
        assert balanced[("b00", "b00")] == "accept"
        assert balanced[("b00", "b11")] == "reject"

    def test_impossible_threshold_rejects_all(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, "simple", threshold=1.0 + 0.0)
        # only exact-1 matched pairs survive a threshold of 1
        assert all(v == "reject" for p, v in verdicts.items() if p[0] != p[1])

    def test_missing_mode_column(self):
        table = qkd_table("0", modes=("simple",), shots=None)
        with pytest.raises(ValueError, match="column"):
            threshold_verdict(table, PI / 3)


class TestSeparationClaim:
    def test_balanced_gap_beats_simple_gap(self):
        table = qkd_table("0", shots=None)
        matched = [("z", "z"), ("x", "x"), ("y", "y")]
        strong_mismatch = [("z", "x"), ("z", "y"), ("x", "z")]
        gap_balanced = (min(table.value(p, "pi/3") for p in matched)
                        - max(table.value(p, "pi/3") for p in strong_mismatch))
        gap_simple = (min(table.value(p, "simple") for p in matched)
                      - max(table.value(p, "simple") for p in strong_mismatch))
        assert gap_balanced >= 1.9 * gap_simple

    def test_bell_separation_exact(self):
        table = qkd_table(initial="00", kind="bell", shots=None)
        gap_balanced = table.value(("b00", "b00"), "pi/3") \
            - table.value(("b00", "b11"), "pi/3")
        assert gap_balanced == pytest.approx(0.5, abs=1e-6)
        gap_simple = table.value(("b00", "b00"), "simple") \
            - table.value(("b00", "b11"), "simple")
        assert gap_simple == pytest.approx(1.0, abs=1e-6)
