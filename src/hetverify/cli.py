"""Command-line entry point: configure an experiment, run it, emit reports.

Exit codes are a stable contract: 0 success/accept, 1 usage error,
2 verdict reject, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache

from . import __version__
from .circuits import Circuit, NoiseModel
from .protocols import (
    DEFAULT_THRESHOLD,
    _prep_gates,
    format_angle,
    protocol1_run,
    protocol2_run,
    protocol3_verify,
)
from .qkd import (BALANCED_QKD_ZETA, DEFAULT_THRESHOLDS, mode_label, qkd_table,
                  threshold_verdict)
from .reference_data import hardware_reference
from .states import complex_to_json
from .tomography import MAX_MEASURED_QUBITS, reconstruct_multi_qubit, tomography_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2
EXIT_RUNTIME = 3
# Above 2^53 the float64 count sums of the assembly stop being exact.
MAX_SHOTS = 2**53
# Both groups' copies are swept at once: protocol2 peaked at 97 MB RSS with
# 800 + 800 copies, 71 MB with 400 + 400 and 46 MB with 50 + 50, about
# 34 KB per copy, so 10^4 + 10^4 copies may need about 0.7 GB.
MAX_COPIES = 10_000

_ANGLE_RE = re.compile(r"^(-?)(\d*)pi(?:/(\d+))?$")


class UsageError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Angles as decimals or symbolic pi fractions: 'pi/3', '2pi/3', '-pi'."""
    text = text.strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(text)
    try:
        if match:
            sign = -1.0 if match.group(1) else 1.0
            numerator = float(match.group(2) or 1)
            denominator = float(match.group(3) or 1)
            angle = sign * numerator * math.pi / denominator
        else:
            angle = float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise UsageError(f"angle {text!r} is not finite")
    return angle


@dataclass
class ExperimentConfig:
    command: str
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        params = dict(self.parameters)
        if isinstance(params.get("zeta"), float):
            params["zeta"] = format_angle(params["zeta"])
        if isinstance(params.get("initial"), tuple):
            # An (alpha, beta) amplitude pair, as [re, im] pairs.
            params["initial"] = complex_to_json(params["initial"])
        return {"command": self.command, "parameters": params}


@dataclass
class ReportBundle:
    payload: dict
    emitted_files: list
    exit_code: int


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once; parse_args leaves it unchanged."""
    parser = _Parser(prog="hetverify",
                     description="Heterodyne-style state verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threshold=None, zeta="pi/2"):
        p.add_argument("--shots", type=int, default=8192,
                       help="shots per measurement setting (default 8192)")
        p.add_argument("--exact", action="store_true",
                       help="use exact probabilities instead of sampling")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noise-1q", type=float, default=0.0,
                       help="depolarizing probability per single-qubit gate")
        p.add_argument("--noise-2q", type=float, default=0.0,
                       help="depolarizing probability per two-qubit gate")
        p.add_argument("--readout-flip", type=float, default=0.0,
                       help="per-bit readout flip probability")
        if zeta is not None:
            p.add_argument("--zeta", default=zeta,
                           help="detection rotation angle (e.g. 0, pi/3, pi/2)")
        p.add_argument("--output-dir", default=".",
                       help="directory for report files")
        if threshold is not None:
            p.add_argument("--threshold", type=float, default=threshold)

    def qkd_threshold(kind):  # the default of the column the verdicts read
        return DEFAULT_THRESHOLDS[kind, mode_label(BALANCED_QKD_ZETA)]

    p1 = sub.add_parser("protocol1", help="single-mode fidelity estimation")
    p1.add_argument("--initial", default="1",
                    help="'1' or 'alpha,beta' amplitude pair")
    p1.add_argument("--copies", type=int, nargs=2, default=(5, 5),
                    metavar=("N", "M"))
    common(p1)

    p2 = sub.add_parser("protocol2", help="multi-mode witness estimation")
    p2.add_argument("--initial", default="1100",
                    help="4-bit string such as 1100")
    p2.add_argument("--copies", type=int, nargs=2, default=(1, 1),
                    metavar=("N", "M"))
    common(p2)

    p3 = sub.add_parser("protocol3", help="threshold verification")
    p3.add_argument("--photons", type=int, default=2)
    p3.add_argument("--modes", type=int, default=4)
    common(p3, threshold=DEFAULT_THRESHOLD)

    qs = sub.add_parser("qkd-single", help="single-qubit basis fidelity table")
    qs.add_argument("--initial", choices=["0", "1"], default="0")
    common(qs, threshold=qkd_threshold("single"), zeta=None)

    qb = sub.add_parser("qkd-bell", help="Bell-basis fidelity table")
    common(qb, threshold=qkd_threshold("bell"), zeta=None)

    tm = sub.add_parser("tomography", help="reconstruct a circuit output")
    tm.add_argument("circuit", help="circuit description JSON file")
    common(tm, zeta=None)
    return parser


def parse_config(argv) -> ExperimentConfig:
    # argparse reads a token that starts with one '-' and is not a plain
    # number such as '-1' or '-.5' as an option, so a value such as '-pi/2'
    # or '-0.6,0.8' would leave its option without one.  Attach each such
    # token but '-h' to the long option, which may be abbreviated, before it.
    argv = list(argv)
    for i in reversed(range(1, len(argv))):
        if (re.match("-[^-]", argv[i]) and re.fullmatch("--[^=]+", argv[i - 1])
                and not re.fullmatch(r"-h|-\d+|-\d*\.\d+", argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    params = vars(args)
    command = params.pop("command")
    if "zeta" in params:
        params["zeta"] = parse_angle(str(params["zeta"]))
    for key in ("noise_1q", "noise_2q", "readout_flip"):
        if not 0.0 <= params.get(key, 0.0) <= 1.0:
            raise UsageError(f"--{key.replace('_', '-')} must be a probability")
    if "threshold" in params and not 0.0 <= params["threshold"] <= 1.0:
        raise UsageError("--threshold must be in [0, 1]")
    if "copies" in params:
        n, m = params["copies"]
        if not (1 <= n <= MAX_COPIES and 1 <= m <= MAX_COPIES):
            raise UsageError(f"--copies requires N >= 1 and M >= 1, each <= {MAX_COPIES}")
    if not 1 <= params.get("shots", 1) <= MAX_SHOTS:
        raise UsageError("--shots must be in [1, 2^53]")
    if params.get("seed", 0) < 0:
        raise UsageError("--seed must be non-negative")
    if params.pop("exact"):
        params["shots"] = None
    if command == "protocol1" and params["initial"] != "1":
        try:
            alpha, beta = (complex(v) for v in params["initial"].split(","))
        except ValueError:
            raise UsageError(
                "--initial must be '1' or 'alpha,beta'") from None
        try:  # the library's own rule for an amplitude pair
            _prep_gates((alpha, beta), 0)
        except ValueError as err:
            raise UsageError(f"--initial: {err}") from None
        params["initial"] = (alpha, beta)
    if command == "protocol2":
        if not re.fullmatch("[01]{4}", params["initial"]):
            raise UsageError("--initial must be a 4-bit string")
    if (command == "protocol3"
            and not 1 <= params["photons"] <= params["modes"] <= MAX_MEASURED_QUBITS):
        raise UsageError(f"need 1 <= photons <= modes <= {MAX_MEASURED_QUBITS}")
    return ExperimentConfig(command, params)


def _atomic_write(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then `os.replace` it
    onto `path`, so a reader sees the old file or the new one, never a part.

    On ext4 with its default `auto_da_alloc`, a rename over an existing file
    starts writeback of the new data.  On a 2-vCPU ext4 host that took about
    0.24 ms per replaced report file, or about 0.95 ms of a `qkd-tables`
    bench experiment, which rewrites 4 files; onto a free name it took
    0.015 ms.  Writing in place truncates, which starts the same writeback
    (0.16 ms), and unlinking first would avoid it, but neither replaces the
    file atomically, so the cost stays.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:  # line ends as given
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"cannot write {path}: {err}") from err


def emit_plot_data(series, path) -> None:
    """Two-column fidelity-vs-copy table, fixed 6-decimal precision."""
    series = list(series)
    if not series:
        raise ValueError("plot series is empty")
    lines = [f"{int(index)} {value:.6f}" for index, value in series]
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_table_csv(table, path) -> None:
    """A `qkd_table` dict as csv.writer writes it, 6 decimals and CRLF line
    ends; no mode label or pair name holds a comma or a quote to escape."""
    lines = [",".join(["encode-decode", *table["modes"]])]
    lines += [",".join([pair, *(f"{row[m]:.6f}" for m in table["modes"])])
              for pair, row in table["rows"].items()]
    _atomic_write(path, "\r\n".join(lines) + "\r\n")


def run_and_report(config: ExperimentConfig) -> ReportBundle:
    """Dispatch a validated config, write its report files, and return
    the bundle with the process exit code."""
    params = config.parameters
    outdir = params.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    noise = NoiseModel(params["noise_1q"], params["noise_2q"], params["readout_flip"])
    shots, seed = params.get("shots"), params.get("seed", 0)
    emitted = []
    exit_code = EXIT_OK

    if config.command == "protocol1":
        payload = protocol1_run(params["initial"], params["zeta"], params["copies"],
                                shots=shots, seed=seed, noise=noise)
        series = enumerate((f for group in payload["groups"]
                            for f in group["copy_fidelities"]), 1)
        plot_path = os.path.join(outdir, "fidelity_vs_copy.txt")
        emit_plot_data(series, plot_path)
        emitted.append(plot_path)
    elif config.command == "protocol2":
        payload = protocol2_run(params["initial"], params["zeta"], params["copies"],
                                shots=shots, seed=seed, noise=noise)
    elif config.command == "protocol3":
        payload = protocol3_verify(params["photons"], params["modes"],
                                   zeta=params["zeta"], threshold=params["threshold"],
                                   shots=shots, seed=seed, noise=noise)
        if payload["verdict"] == "reject":
            exit_code = EXIT_REJECT
    elif config.command in ("qkd-single", "qkd-bell"):
        table = qkd_table(params.get("initial", "00"), shots=shots, seed=seed, noise=noise)
        payload = {
            "table": table,
            "verdicts": threshold_verdict(table, BALANCED_QKD_ZETA,
                                          params["threshold"]),
            "verdict_mode": mode_label(BALANCED_QKD_ZETA),
        }
        csv_path = os.path.join(outdir, f"{config.command}_table.csv")
        emit_table_csv(table, csv_path)
        emitted.append(csv_path)
    elif config.command == "tomography":
        circuit = Circuit.load(params["circuit"])
        expectations, = tomography_sweep([circuit], shots=shots, seeds=[seed],
                                         noise=noise)
        rho, = reconstruct_multi_qubit([expectations], len(circuit.system_qubits))
        payload = {"expectations": expectations,
                   "reconstruction": rho.to_json()}
    else:  # pragma: no cover - parser restricts commands
        raise UsageError(f"unknown command {config.command!r}")

    reference = hardware_reference(config.command,
                                   str(params.get("initial", "0")))
    bundle_json = {
        "config": config.to_json(),
        "result": payload,
        "hardware_reference": reference,
        "provenance": {
            "version": __version__,
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    report_path = os.path.join(outdir, f"{config.command.replace('-', '_')}_report.json")
    _atomic_write(report_path, json.dumps(bundle_json, indent=2))
    emitted.append(report_path)
    return ReportBundle(bundle_json, emitted, exit_code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        bundle = run_and_report(parse_config(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in bundle.emitted_files:
        print(f"wrote {path}")
    if bundle.exit_code == EXIT_REJECT:
        print("verdict: reject")
    return bundle.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
