import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hetverify.cli
from hetverify.cli import (
    EXIT_OK,
    EXIT_REJECT,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_COPIES,
    MAX_SHOTS,
    UsageError,
    _build_parser,
    emit_plot_data,
    format_angle,
    main,
    parse_angle,
    parse_config,
    run_and_report,
)
from hetverify.protocols import DEFAULT_THRESHOLD
from hetverify.qkd import DEFAULT_THRESHOLDS
from hetverify.tomography import MAX_MEASURED_QUBITS


class TestAngleParsing:
    @pytest.mark.parametrize("text,expected", [
        ("pi/2", math.pi / 2),
        ("pi/3", math.pi / 3),
        ("pi", math.pi),
        ("2pi/3", 2 * math.pi / 3),
        ("-pi/2", -math.pi / 2),
        ("0", 0.0),
        ("1.5", 1.5),
    ])
    def test_parse(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    def test_parse_garbage(self):
        with pytest.raises(UsageError):
            parse_angle("three")

    def test_format_roundtrip(self):
        for text in ("pi/2", "pi/3", "-pi/2", "pi"):
            assert format_angle(parse_angle(text)) == text


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_examples_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("hetverify")]
    assert lines, "no hetverify examples under '## Command line'"
    for line in lines:
        parse_config(shlex.split(line)[1:])


class TestParseConfig:
    def test_protocol3_defaults(self):
        config = parse_config(["protocol3", "--zeta", "pi/2",
                               "--threshold", "0.6"])
        assert config.command == "protocol3"
        assert config.parameters["zeta"] == pytest.approx(math.pi / 2)
        assert config.parameters["threshold"] == 0.6
        assert config.parameters["shots"] == 8192
        assert config.parameters["seed"] == 0

    def test_qkd_single(self):
        config = parse_config(["qkd-single", "--initial", "1"])
        assert config.parameters["initial"] == "1"
        assert "zeta" not in config.parameters

    @pytest.mark.parametrize("argv", [["qkd-single"], ["qkd-bell"],
                                      ["tomography", "circuit.json"]])
    def test_zeta_rejected_where_unread(self, argv):
        # The QKD tables fix their own columns and tomography has no
        # detection stage, so --zeta is not an option of these commands.
        with pytest.raises(UsageError, match="--zeta"):
            parse_config([*argv, "--zeta", "pi/3"])
        assert main([*argv, "--zeta", "pi/3"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["protocol1", "protocol2", "protocol3"])
    @pytest.mark.parametrize("text,angle", [("-pi/2", -math.pi / 2),
                                            ("-2pi/3", -2 * math.pi / 3), ("-0.5", -0.5)])
    def test_negative_angle_after_zeta(self, command, text, angle):
        # argparse takes '-pi/2' for an option unless it is attached.
        for argv in ([command, "--zeta", text], [command, f"--zeta={text}"]):
            assert parse_config(argv).parameters["zeta"] == pytest.approx(angle, abs=1e-15)

    @pytest.mark.parametrize("command", ["protocol1", "protocol2", "protocol3"])
    def test_unparsable_negative_angle_is_usage_error(self, command, capsys):
        assert main([command, "--zeta", "-foo"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: cannot parse angle '-foo'\n"
        # An option after --zeta is still a missing value, not an angle.
        assert main([command, "--zeta", "--exact"]) == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

    def test_negative_symbolic_angle_runs(self, tmp_path):
        argv = ["protocol2", "--exact", "--zeta", "-pi/2", "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "protocol2_report.json").read_text())
        assert report["config"]["parameters"]["zeta"] == "-pi/2"
        assert report["result"]["groups"][0]["zeta"] == -math.pi / 2

    def test_defaults_come_from_the_library(self):
        # The parser reads each default and limit from the module that uses it.
        defaults = {cmd: parse_config([cmd]).parameters["threshold"]
                    for cmd in ("protocol3", "qkd-single", "qkd-bell")}
        assert defaults == {"protocol3": DEFAULT_THRESHOLD,
                            "qkd-single": DEFAULT_THRESHOLDS["single", "pi/3"],
                            "qkd-bell": DEFAULT_THRESHOLDS["bell", "pi/3"]}
        assert defaults == {"protocol3": 0.6, "qkd-single": 0.8, "qkd-bell": 0.7}
        with pytest.raises(UsageError, match=f"<= {MAX_MEASURED_QUBITS}"):
            parse_config(["protocol3", "--modes", str(MAX_MEASURED_QUBITS + 1)])

    def test_zero_copies_rejected(self):
        with pytest.raises(UsageError, match="N >= 1"):
            parse_config(["protocol1", "--copies", "0", "5"])

    def test_unknown_command_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["protocol9"])

    def test_bad_probability_rejected(self):
        with pytest.raises(UsageError, match="probability"):
            parse_config(["protocol1", "--noise-1q", "1.5"])

    def test_bad_threshold_rejected(self):
        with pytest.raises(UsageError, match="threshold"):
            parse_config(["protocol3", "--threshold", "2"])

    # The library's own rule: a finite, nonzero norm, which two finite
    # amplitudes near the float limit overflow.
    @pytest.mark.parametrize("initial", ["0,0", "0,0j", "nan,1", "1,inf", "1.7e308,1.7e308",
                                         "1.7e308+1.7e308j,1"])
    def test_degenerate_initial_pair_rejected(self, initial):
        with pytest.raises(UsageError, match="--initial"):
            parse_config(["protocol1", "--initial", initial])
        assert main(["protocol1", "--initial", initial]) == EXIT_USAGE

    def test_exact_flag_clears_shots(self):
        config = parse_config(["protocol1", "--exact"])
        assert config.parameters["shots"] is None

    @pytest.mark.parametrize("argv", [
        ["qkd-single", "--seed", "-1"],
        ["protocol2", "--zeta", "inf"],
        ["protocol3", "--zeta", "nan"],
        ["protocol1", "--zeta", "pi/0"],
        ["qkd-single", "--shots", "99999999999999999999"],
        ["qkd-bell", "--shots", str(MAX_SHOTS + 1)],
        ["protocol1", "--copies", "99999999999999999999", "1"],
        ["protocol2", "--copies", "1", str(MAX_COPIES + 1)],
    ], ids=" ".join)
    def test_out_of_range_argument_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(UsageError):
            parse_config(argv)
        assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_largest_shot_count_accepted(self):
        config = parse_config(["qkd-single", "--shots", str(MAX_SHOTS)])
        assert config.parameters["shots"] == MAX_SHOTS

    def test_cached_parser_keeps_no_state(self):
        assert _build_parser() is _build_parser()
        first = parse_config(["protocol1", "--copies", "2", "3", "--seed", "5",
                              "--exact", "--zeta", "pi/3"])
        assert first.parameters["copies"] == [2, 3]
        again = parse_config(["protocol1"])
        assert again.parameters["copies"] == (5, 5)
        assert again.parameters["seed"] == 0
        assert again.parameters["shots"] == 8192
        assert again.parameters["zeta"] == pytest.approx(math.pi / 2)
        assert parse_config(["protocol2"]).parameters["copies"] == (1, 1)


GOLDEN_CIRCUIT = Path(__file__).parent / "data" / "golden_circuit.json"
GROUP_KEYS = ["label", "zeta", "copy_fidelities", "mean", "std"]
MULTI_MODE_GROUP_KEYS = GROUP_KEYS + [
    "global_fidelity", "reduced_fidelities_ideal", "witness_ideal",
    "reduced_fidelities_input", "witness_input"]


class TestRunAndReport:
    def test_protocol1_noiseless_exact(self, tmp_path):
        config = parse_config(["protocol1", "--exact", "--initial", "1",
                               "--copies", "5", "5",
                               "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        assert bundle.exit_code == EXIT_OK
        plot = (tmp_path / "fidelity_vs_copy.txt").read_text().splitlines()
        assert len(plot) == 10
        assert all(line.endswith("1.000000") for line in plot)
        report = json.loads((tmp_path / "protocol1_report.json").read_text())
        fidelities = report["result"]["groups"][0]["copy_fidelities"]
        assert fidelities == pytest.approx([1.0] * 5, abs=1e-9)

    def test_protocol3_accept_exit_zero(self, tmp_path):
        config = parse_config(["protocol3", "--exact",
                               "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        assert bundle.exit_code == EXIT_OK
        report = json.loads((tmp_path / "protocol3_report.json").read_text())
        assert report["result"]["verdict"] == "accept"

    def test_protocol3_noisy_reject_exit_two(self, tmp_path):
        argv = ["protocol3", "--exact", "--noise-1q", "0.3",
                "--noise-2q", "0.3", "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_REJECT

    def test_qkd_bell_csv_values(self, tmp_path):
        config = parse_config(["qkd-bell", "--exact",
                               "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        assert bundle.exit_code == EXIT_OK
        lines = (tmp_path / "qkd-bell_table.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        balanced = [float(r[1]) for r in rows]
        assert balanced == pytest.approx([0.75, 0.433013, 0.433013, 0.25],
                                         abs=1e-5)

    def test_json_report_roundtrips(self, tmp_path):
        config = parse_config(["qkd-single", "--exact",
                               "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        on_disk = json.loads(
            (tmp_path / "qkd_single_report.json").read_text())
        assert on_disk["result"] == bundle.payload["result"]

    def test_deterministic_report_content(self, tmp_path):
        for sub in ("a", "b"):
            argv = ["protocol2", "--shots", "1024", "--seed", "3",
                    "--output-dir", str(tmp_path / sub)]
            assert main(argv) == EXIT_OK
        load = lambda sub: json.loads(
            (tmp_path / sub / "protocol2_report.json").read_text())["result"]
        assert load("a") == load("b")

    def test_tomography_command(self, tmp_path):
        from hetverify.circuits import Circuit, u3

        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(
            Circuit(2, [u3(0, math.pi / 2, 0, math.pi)]).to_json()))
        config = parse_config(["tomography", str(path), "--exact",
                               "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        ex = bundle.payload["result"]["expectations"]
        assert ex["XI"] == pytest.approx(1.0)

    @pytest.mark.parametrize("argv,result_keys,group_keys", [
        (["protocol1", "--copies", "1", "1"],
         ["protocol", "groups", "target_state"], GROUP_KEYS),
        (["protocol2"],
         ["protocol", "groups", "global_fidelity", "witness"], MULTI_MODE_GROUP_KEYS),
        (["protocol3"],
         ["protocol", "groups", "global_fidelity", "witness", "trace_distance", "tvd",
          "raw_min_eigenvalue", "threshold", "verdict", "bound_checks"],
         MULTI_MODE_GROUP_KEYS),
        (["qkd-single"], ["table", "verdicts", "verdict_mode"], None),
        (["qkd-bell"], ["table", "verdicts", "verdict_mode"], None),
        (["tomography", str(GOLDEN_CIRCUIT)], ["expectations", "reconstruction"], None),
    ], ids=["protocol1", "protocol2", "protocol3", "qkd-single", "qkd-bell", "tomography"])
    def test_result_key_order(self, tmp_path, argv, result_keys, group_keys):
        # The golden fixture compares keys as sets; this pins the order
        # in which each report's `result` is written.
        assert main([*argv, "--exact", "--output-dir", str(tmp_path)]) == EXIT_OK
        [path] = tmp_path.glob("*_report.json")
        result = json.loads(path.read_text())["result"]
        assert list(result) == result_keys
        for group in result.get("groups", []):
            assert list(group) == group_keys
        for chain in result.get("bound_checks", []):
            assert list(chain) == ["name", "lhs", "mid", "rhs", "holds"]

    @pytest.mark.parametrize("argv", [
        ["protocol1", "--copies", "1", "1"], ["protocol2"], ["protocol3"],
        ["qkd-single"], ["qkd-bell"], ["tomography", str(GOLDEN_CIRCUIT)],
    ], ids=["protocol1", "protocol2", "protocol3", "qkd-single", "qkd-bell", "tomography"])
    def test_every_output_written_atomically(self, tmp_path, monkeypatch, argv):
        written = []
        atomic_write = hetverify.cli._atomic_write

        def recording(path, text):
            written.append(path)
            atomic_write(path, text)

        monkeypatch.setattr(hetverify.cli, "_atomic_write", recording)
        config = parse_config([*argv, "--exact", "--output-dir", str(tmp_path)])
        bundle = run_and_report(config)
        assert written == bundle.emitted_files
        assert sorted(str(path) for path in tmp_path.iterdir()) == sorted(written)


class TestMainExitCodes:
    def test_usage_error_exit_one(self, capsys):
        assert main(["protocol1", "--copies", "0", "5"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exit_one(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unwritable_table_csv_exit_three(self, tmp_path, capsys):
        (tmp_path / "qkd-single_table.csv").mkdir()
        argv = ["qkd-single", "--exact", "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert "cannot write" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.tmp"))
        assert not (tmp_path / "qkd_single_report.json").exists()

    def test_runtime_value_error_exit_three(self, tmp_path, capsys):
        from hetverify.circuits import Circuit

        # The ancilla of a gate-free circuit always reads 0, so
        # post-selecting on 1 keeps no shots.
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(Circuit(2, ancilla=1).to_json()))
        argv = ["tomography", str(path), "--shots", "16",
                "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert "kept 0 of 16 shots" in capsys.readouterr().err

    @pytest.mark.parametrize("description,problem", [
        ({"num_qubits": 2}, "'gates' must be a list"),
        ([1], "must be a JSON object"),
        ({"num_qubits": 2, "gates": [{"kind": "x"}]}, "gate 0 needs a 'qubits'"),
        ({"num_qubits": 1.5, "gates": []}, "'num_qubits' must be an integer"),
    ])
    def test_malformed_circuit_file_exit_three(self, tmp_path, capsys,
                                               description, problem):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(description))
        argv = ["tomography", str(path), "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("text,problem", [
        ("[" * 100_000, "invalid JSON"),
        ("{", "invalid JSON"),
        (json.dumps({"num_qubits": 1, "gates": [
            {"kind": "u3", "qubits": [0], "angles": [10**400, 0, 0]}]}),
         "u3 gate on qubits (0,): angles must be finite"),
        # Each angle is finite, but phi + lambda overflows to inf.
        (json.dumps({"num_qubits": 1, "gates": [
            {"kind": "u3", "qubits": [0], "angles": [0, 1e308, 1e308]}]}),
         "angles=(0.0, 1e+308, 1e+308)): the angles overflow the gate matrix"),
        (json.dumps({"num_qubits": 1, "gates": [
            {"kind": "x", "qubits": [0], "angles": [1, 2, 3, 4, 5]}]}),
         "x gate on qubits (0,): takes 0 angles, got 5"),
    ], ids=["deeply-nested", "truncated", "huge-integer-angle", "overflowing-angles",
            "x-with-angles"])
    def test_unreadable_circuit_json_exit_three(self, tmp_path, capsys, text, problem):
        path = tmp_path / "circuit.json"
        path.write_text(text)
        argv = ["tomography", str(path), "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["sampled", "exact"])
    def test_ancilla_only_circuit_exit_three(self, tmp_path, capsys, mode):
        # With its one qubit the ancilla, the circuit has nothing to measure.
        path = tmp_path / "anc.json"
        path.write_text(json.dumps({"num_qubits": 1, "ancilla": 0,
                                    "gates": [{"kind": "x", "qubits": [0]}]}))
        argv = ["tomography", str(path), *mode, "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_RUNTIME
        assert ("need at least 1 and at most 4 measured qubits, got 0"
                in capsys.readouterr().err)

    def test_initial_amplitude_pair_runs(self, tmp_path):
        argv = ["protocol1", "--initial", "0.6,0.8", "--shots", "64",
                "--copies", "1", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "protocol1_report.json").read_text())
        assert report["config"]["parameters"]["initial"] == [[0.6, 0.0],
                                                             [0.8, 0.0]]
        assert report["result"]

    def test_success_exit_zero(self, tmp_path):
        assert main(["protocol1", "--exact", "--copies", "1", "1",
                     "--output-dir", str(tmp_path)]) == EXIT_OK


class TestPlotData:
    def test_rows_and_precision(self, tmp_path):
        path = tmp_path / "series.txt"
        emit_plot_data([(1, 1.0), (2, 0.98765432)], path)
        assert path.read_text() == "1 1.000000\n2 0.987654\n"

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_plot_data([], tmp_path / "series.txt")


# Tokens for the fuzz test below: each option's valid values, and the
# hostile tokens one of them may be swapped for.  Valid shot and copy
# counts stay at most 64 and 2 so that an accepted argv runs fast.
VALID = {
    "--shots": ["1", "16", "64"],
    "--copies": ["1", "2"],
    "--seed": ["0", "7", str(2**70)],
    "--noise-1q": ["0", "0.05", "1"],
    "--noise-2q": ["0", "0.3"],
    "--readout-flip": ["0", "0.02", "0.5", "1"],
    "--zeta": ["0", "pi/3", "-2pi/3", "1.25"],
    "--threshold": ["0", "0.6", "1"],
    "--photons": ["1", "2", "4"],
    "--modes": ["1", "3", "4"],
}
INITIAL = {"protocol1": ["1", "0.6,0.8", "1j,1", "1e-300,1e-300"],
           "protocol2": ["1100", "0101"], "qkd-single": ["0", "1"]}
HOSTILE = ["", "-1", "0", "nan", "inf", "-inf", "pi/0", "1e400", "2", "0,0",
           "nan,1", "11001", "99999999999999999999", str(2**53 + 1), "abc",
           "--", "-", "--bogus", "--exact"]
OPTIONS = {
    "protocol1": ["--zeta"],
    "protocol2": ["--zeta"],
    "protocol3": ["--photons", "--modes", "--zeta", "--threshold"],
    "qkd-single": ["--threshold"],
    "qkd-bell": ["--threshold"],
    "tomography": [],
}
COMMON = ["--seed", "--noise-1q", "--noise-2q", "--readout-flip"]


@st.composite
def hostile_swap(draw, tokens: list) -> list:
    """`tokens`, or, one time in three, a copy with one of them replaced
    by a hostile token."""
    if not tokens or draw(st.integers(0, 2)) > 0:
        return tokens
    i = draw(st.integers(0, len(tokens) - 1))
    return [*tokens[:i], draw(st.sampled_from(HOSTILE)), *tokens[i + 1:]]


@st.composite
def circuit_descriptions(draw):
    """Small circuit files: runnable ones, ones too wide or with a bare
    ancilla, some with one hostile field and some that are not JSON
    objects at all (returned as the file's text)."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["", "{", "null", "[1]", "[" * 100_000]))
    n = draw(st.sampled_from([1, 2, 3, 5]))
    qubit = st.integers(0, n - 1)
    angles = st.tuples(*[st.sampled_from([0.0, 1.0, math.pi, -2.5])] * 3)
    gates = [{"kind": "x", "qubits": [draw(qubit)]}
             for _ in range(draw(st.integers(0, 2)))]
    gates += [{"kind": "u3", "qubits": [draw(qubit)], "angles": list(draw(angles))}
              for _ in range(draw(st.integers(0, 2)))]
    if n > 1:
        c, t = draw(st.permutations(range(n)))[:2]
        gates.append({"kind": "cu3", "qubits": [c, t], "angles": list(draw(angles))})
    ancilla = draw(st.one_of(st.none(), qubit))
    if ancilla is not None:  # prepared in |1>, so post-selection mostly keeps shots
        gates.insert(0, {"kind": "x", "qubits": [ancilla]})
    description = {"num_qubits": n, "gates": gates, "ancilla": ancilla}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(["num_qubits", "gates", "ancilla"]))
        description[key] = draw(st.sampled_from(
            [0, 7, -1, "2", None, 1.5, [], [{"kind": "h", "qubits": [0]}],
             [{"kind": "u3", "qubits": [0], "angles": [1e400, 0, 0]}],
             [{"kind": "u3", "qubits": [0], "angles": [10**400, 0, 0]}],
             [{"kind": "x", "qubits": [0], "angles": [1, 2, 3, 4, 5]}]]))
    return description


@st.composite
def cli_argvs(draw):
    """(argv, circuit description or None) for one run of main."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = [*OPTIONS[command], *COMMON]
    tokens = []
    for option in draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
        tokens += [option, draw(st.sampled_from(VALID[option]))]
    if command in INITIAL and draw(st.booleans()):
        tokens += ["--initial", draw(st.sampled_from(INITIAL[command]))]
    if command in ("protocol1", "protocol2"):
        tokens += ["--copies", *draw(st.lists(
            st.sampled_from(VALID["--copies"]), min_size=2, max_size=2))]
    if draw(st.booleans()):
        tokens.append("--exact")
    # --shots always comes last, so the default of 8192 never runs.
    tokens += ["--shots", draw(st.sampled_from(VALID["--shots"]))]
    description = draw(circuit_descriptions()) if command == "tomography" else None
    return [command, *draw(hostile_swap(tokens))], description


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cli_argvs())
# Inputs that once ended in a traceback always run.
@example(case=(["qkd-single", "--shots", "99999999999999999999"], None))
@example(case=(["protocol1", "--zeta", "pi/0"], None))
@example(case=(["protocol1", "--copies", "99999999999999999999", "1"], None))
@example(case=(["tomography"], "[" * 100_000))
@example(case=(["tomography"], {"num_qubits": 2}))
@example(case=(["tomography"], {"num_qubits": 1, "gates": [
    {"kind": "u3", "qubits": [0], "angles": [10**400, 0, 0]}]}))
@example(case=(["tomography", "--shots", "16"],
               {"num_qubits": 1, "gates": [], "ancilla": 0}))
def test_fuzzed_argv_never_raises(case):
    """Whatever argv and circuit file it gets, main returns an exit code
    of the contract and never raises."""
    argv, description = case
    with tempfile.TemporaryDirectory() as tmp:
        if description is not None:
            path = Path(tmp) / "circuit.json"
            path.write_text(description if isinstance(description, str)
                            else json.dumps(description))
            argv = [argv[0], str(path), *argv[1:]]
        assert main([*argv, "--output-dir", tmp]) in {0, 1, 2, 3}


def top_level_modules(code: str) -> set:
    """The top-level names in sys.modules after a new interpreter, which
    imports the package under test, runs `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(hetverify.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport sys\nprint(*sorted({{m.partition('.')[0] for m in sys.modules}}))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    """An exact and a sampled CLI run import nothing beyond the standard
    library, numpy with numpy.random, and the package itself."""
    runs = ("import hetverify.cli\n"
            "for argv in (['protocol3', '--exact'], ['qkd-single', '--shots', '64']):\n"
            f"    assert hetverify.cli.main([*argv, '--output-dir', {str(tmp_path)!r}]) == 0")
    extra = top_level_modules(runs) - top_level_modules("import numpy; numpy.random")
    assert extra - set(sys.stdlib_module_names) == {"hetverify"}
