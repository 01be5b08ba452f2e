import math

import numpy as np
import pytest

from conftest import cell
from hetverify.circuits import cu3, run_statevector, u3, x
from hetverify.cli import EXIT_OK, main, parse_config, run_and_report
from hetverify.metrics import fidelity
from hetverify.qkd import (
    BALANCED_QKD_ZETA,
    BELL_LABELS,
    BELL_PAIR_ORDER,
    SINGLE_PAIR_ORDER,
    _bell_encode_gates,
    bell_qkd_circuit,
    mode_label,
    qkd_table,
    single_qkd_circuit,
    threshold_verdict,
)
from hetverify.states import StateVector
from hetverify.tomography import reconstruct_multi_qubit, tomography_sweep

PI = math.pi
SQRT_HALF = 1 / np.sqrt(2)
COS_PI_6 = math.cos(PI / 6)          # matched fidelity at zeta=pi/3
MISMATCH_PI_3 = 0.258819             # |cos(pi/6) - sin(pi/6)| / sqrt(2)


def decoded_fidelity(circuit, bits, shots=None, seed=0):
    """One table cell: the fidelity of the circuit's tomographed system
    register against |bits>, from a one-circuit sweep with the cell's seed."""
    expectations = tomography_sweep(circuit, shots=shots, seed=seed)
    return fidelity(reconstruct_multi_qubit(expectations, len(bits)),
                    StateVector.computational(bits))


def single_cell(initial, encode, decode, mode, **sweep):
    return decoded_fidelity(single_qkd_circuit(initial, encode, decode, mode),
                            str(initial), **sweep)


def bell_cell(encode, decode, mode, **sweep):
    return decoded_fidelity(bell_qkd_circuit(encode, decode, mode), "00", **sweep)


class TestMatchedPairs:
    @pytest.mark.parametrize("basis", ["z", "x", "y"])
    def test_simple_identity(self, basis):
        assert single_cell("0", basis, basis, "simple") == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("basis", ["z", "x", "y"])
    @pytest.mark.parametrize("initial", ["0", "1"])
    def test_balanced_detection_value(self, basis, initial):
        value = single_cell(initial, basis, basis, BALANCED_QKD_ZETA)
        assert value == pytest.approx(COS_PI_6, abs=1e-10)

    def test_matched_circuit_is_identity_up_to_phase(self):
        for basis in ("z", "x", "y"):
            circuit = single_qkd_circuit("0", basis, basis, "simple")
            state = run_statevector(circuit)
            assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("initial", ["0", "1", 0, 1])
    def test_scored_against_the_prepared_state(self, initial):
        assert single_cell(initial, "z", "z", "simple") == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("initial", ["2", 2, "", "01", (0.6, 0.8), None,
                                         np.array([0.6, 0.8])])
    def test_other_initial_rejected(self, initial):
        # Only |0> and |1> are scored against their own preparation.
        with pytest.raises(ValueError, match="initial must be '0' or '1'"):
            single_qkd_circuit(initial, "z", "z", "simple")
        with pytest.raises(ValueError, match="initial must be '0', '1' or '00'"):
            qkd_table(initial, shots=None)


class TestMismatchedPairs:
    @pytest.mark.parametrize("pair", [("z", "x"), ("z", "y"), ("x", "z")])
    def test_strong_mismatch_balanced(self, pair):
        value = single_cell("0", *pair, BALANCED_QKD_ZETA)
        assert value == pytest.approx(MISMATCH_PI_3, abs=1e-6)

    @pytest.mark.parametrize("pair", [("z", "x"), ("z", "y"), ("x", "z"),
                                      ("x", "y"), ("y", "z"), ("y", "x")])
    def test_simple_mismatch(self, pair):
        value = single_cell("0", *pair, "simple")
        assert value == pytest.approx(SQRT_HALF, abs=1e-10)

    @pytest.mark.parametrize("pair", [("x", "y"), ("y", "z"), ("y", "x")])
    def test_weak_mismatch_stays_high_balanced(self, pair):
        value = single_cell("0", *pair, BALANCED_QKD_ZETA)
        assert value == pytest.approx(SQRT_HALF, abs=1e-6)


class TestBellPairs:
    def test_matched_simple(self):
        assert bell_cell("b00", "b00", "simple") == \
            pytest.approx(1.0, abs=1e-10)

    def test_balanced_values(self):
        expected = {"b00": 0.75, "b01": 0.4330127, "b10": 0.4330127,
                    "b11": 0.25}
        for decode, value in expected.items():
            assert bell_cell("b00", decode, BALANCED_QKD_ZETA) == \
                pytest.approx(value, abs=1e-6), decode

    def test_mismatched_simple_vanishes(self):
        for decode in ("b01", "b10", "b11"):
            assert bell_cell("b00", decode, "simple") == \
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
        assert cell(table, ("z", "z"), "pi/3") == pytest.approx(COS_PI_6)
        assert cell(table, ("z", "x"), "simple") == pytest.approx(SQRT_HALF)
        assert cell(table, ("y", "y"), "simple") == pytest.approx(1.0)

    def test_exact_bell_table(self):
        table = qkd_table("00", shots=None)
        values = [cell(table, p, "pi/3") for p in BELL_PAIR_ORDER]
        np.testing.assert_allclose(values, [0.75, 0.4330127, 0.4330127, 0.25],
                                   atol=1e-6)

    @pytest.mark.parametrize("given", ["default", "00"])
    def test_bell_table_records_00(self, tmp_path, given):
        # qkd-bell has no --initial; the CLI's default picks the Bell table.
        if given == "default":
            config = parse_config(["qkd-bell", "--exact", "--output-dir", str(tmp_path)])
            table = run_and_report(config).payload["result"]["table"]
        else:
            table = qkd_table("00", shots=None)
        assert (table["kind"], table["initial"]) == ("bell", "00")

    # The initial state picks the table; no other state gives a Bell table.
    @pytest.mark.parametrize("initial, kind", [
        pytest.param(initial, kind, id=repr(initial)) for initial, kind in [
            ("2", None), ("0", "single"), ("11", None), (0, "single"), (None, None),
            ("01", None), (np.array([0.6, 0.8]), None), ("1", "single"),
            ("00", "bell")]])
    def test_bell_table_rejects_other_initial(self, initial, kind):
        if kind is None:
            with pytest.raises(ValueError, match="initial must be '0', '1' or '00', got"):
                qkd_table(initial, modes=("simple",), shots=None)
        else:
            table = qkd_table(initial, modes=("simple",), shots=None)
            assert (table["kind"], table["initial"]) == (kind, str(initial))

    def test_single_table_defaults_to_0(self):
        assert qkd_table(shots=None) == qkd_table("0", shots=None)

    def test_repeated_mode_label_rejected(self):
        # Both angles print as pi/3, so the second column would overwrite the first.
        with pytest.raises(ValueError, match="modes repeat the column label 'pi/3'"):
            qkd_table("0", modes=(PI / 3, PI / 3 + 1e-13, "simple"), shots=None)

    @pytest.mark.parametrize("modes", [(None,), ("SIMPLE",), ("pi/3",), ([1, 2],)],
                             ids=repr)
    def test_unknown_mode_rejected(self, modes):
        with pytest.raises(ValueError, match="a mode is 'simple' or a zeta angle"):
            qkd_table("0", modes=modes, shots=None)

    def test_no_modes_rejected(self):
        with pytest.raises(ValueError, match="at least one mode"):
            qkd_table("0", modes=(), shots=None)

    def test_sampled_within_shot_noise(self):
        exact = qkd_table("0", shots=None)
        for seed in range(5):
            sampled = qkd_table("0", shots=8192, seed=seed)
            for pair in SINGLE_PAIR_ORDER:
                for mode in sampled["modes"]:
                    assert abs(cell(sampled, pair, mode)
                               - cell(exact, pair, mode)) < 0.02

    def test_seed_determinism(self):
        a = qkd_table("0", shots=2048, seed=9)
        b = qkd_table("0", shots=2048, seed=9)
        assert a["rows"] == b["rows"]

    @pytest.mark.parametrize("initial", ["0", "00"], ids=["single", "bell"])
    def test_seed_sequence_is_not_advanced(self, initial):
        # The cells' seeds are the parent's next children, read without
        # spawning from it: the same table twice, as from its int seed.
        parent = np.random.SeedSequence(5)
        first = qkd_table(initial, shots=256, seed=parent)
        assert qkd_table(initial, shots=256, seed=parent) == first
        assert parent.n_children_spawned == 0
        assert first == qkd_table(initial, shots=256, seed=5)

    def test_cells_match_single_runs_with_child_seeds(self):
        table = qkd_table("1", shots=512, seed=7)
        children = iter(np.random.SeedSequence(7).spawn(27))
        for e, d in SINGLE_PAIR_ORDER:
            for mode, label in zip((BALANCED_QKD_ZETA, PI / 2, "simple"), table["modes"]):
                value = single_cell("1", e, d, mode, shots=512, seed=next(children))
                assert table["rows"][f"{e}-{d}"][label] == value
        bell = qkd_table("00", modes=("simple",), shots=512, seed=7)
        for (e, d), child in zip(BELL_PAIR_ORDER, np.random.SeedSequence(7).spawn(4)):
            value = bell_cell(e, d, "simple", shots=512, seed=child)
            assert bell["rows"][f"{e}-{d}"]["simple"] == value

    def test_csv_export_row_order(self, tmp_path):
        # The file the CLI writes, as bytes: csv.writer ends every line in \r\n.
        assert main(["qkd-single", "--exact", "--output-dir", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "qkd-single_table.csv").read_bytes().decode()
        lines = text.split("\r\n")
        assert lines[-1] == "" and "\n" not in "".join(lines)
        assert lines[0] == "encode-decode,pi/3,pi/2,simple"
        rows = [line.split(",") for line in lines[1:-1]]
        assert [row[0] for row in rows] == ["z-z", "z-x", "z-y", "x-z", "x-x", "x-y",
                                            "y-z", "y-x", "y-y"]
        table = qkd_table("0", shots=None)
        for pair, *values in rows:
            assert values == [f"{table['rows'][pair][m]:.6f}" for m in table["modes"]]
        assert rows[0][1:] == ["0.866025", "0.707107", "1.000000"]  # cos(pi/6), cos(pi/4), 1

    def test_mode_labels(self):
        assert mode_label("simple") == "simple"
        assert mode_label(PI / 3) == "pi/3"
        assert mode_label(PI / 2) == "pi/2"


class TestThresholdVerdict:
    def test_balanced_default_accepts_only_matched(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, BALANCED_QKD_ZETA)
        accepted = {p for p, v in verdicts.items() if v == "accept"}
        assert accepted == {"z-z", "x-x", "y-y"}

    def test_simple_default_accepts_only_matched(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, "simple")
        accepted = {p for p, v in verdicts.items() if v == "accept"}
        assert accepted == {"z-z", "x-x", "y-y"}

    def test_bell_defaults(self):
        table = qkd_table("00", shots=None)
        balanced = threshold_verdict(table, BALANCED_QKD_ZETA)
        assert balanced["b00-b00"] == "accept"
        assert balanced["b00-b11"] == "reject"

    def test_impossible_threshold_rejects_all(self):
        table = qkd_table("0", shots=None)
        verdicts = threshold_verdict(table, "simple", threshold=1.0 + 0.0)
        # only exact-1 matched pairs survive a threshold of 1
        assert all(v == "reject" for p, v in verdicts.items()
                   if p not in ("z-z", "x-x", "y-y"))

    def test_missing_mode_column(self):
        table = qkd_table("0", modes=("simple",), shots=None)
        with pytest.raises(ValueError, match="column"):
            threshold_verdict(table, PI / 3)


class TestSeparationClaim:
    def test_balanced_gap_beats_simple_gap(self):
        table = qkd_table("0", shots=None)
        matched = [("z", "z"), ("x", "x"), ("y", "y")]
        strong_mismatch = [("z", "x"), ("z", "y"), ("x", "z")]
        gap_balanced = (min(cell(table, p, "pi/3") for p in matched)
                        - max(cell(table, p, "pi/3") for p in strong_mismatch))
        gap_simple = (min(cell(table, p, "simple") for p in matched)
                      - max(cell(table, p, "simple") for p in strong_mismatch))
        assert gap_balanced >= 1.9 * gap_simple

    def test_bell_separation_exact(self):
        table = qkd_table("00", shots=None)
        gap_balanced = cell(table, ("b00", "b00"), "pi/3") \
            - cell(table, ("b00", "b11"), "pi/3")
        assert gap_balanced == pytest.approx(0.5, abs=1e-6)
        gap_simple = cell(table, ("b00", "b00"), "simple") \
            - cell(table, ("b00", "b11"), "simple")
        assert gap_simple == pytest.approx(1.0, abs=1e-6)
