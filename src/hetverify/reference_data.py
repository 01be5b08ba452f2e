"""Reference fidelities recorded on a noisy five-qubit superconducting chip.

These fixtures are display-only.  They capture what the same experiments
produced on real hardware, where device noise, crosstalk, and readout
error dominate; this package's depolarizing model makes no attempt to
reproduce them numerically.  They exist so a report can show simulated
values next to the hardware record for context.

Values outside [0, 1] (for example a fidelity of 1.1004) were reported
as measured: raw linear-inversion tomography on noisy counts can yield
unphysical estimates.
"""
from __future__ import annotations

# Single-qubit basis fidelity tables measured on hardware, keyed by the
# prepared state.  Rows follow the encode-decode pair order of
# qkd.qkd_table; columns are the detection modes pi/3, pi/2, simple.
HARDWARE_SINGLE_QKD = {
    "0": {
        ("z", "z"): (0.8698, 0.7174, 0.9985),
        ("z", "x"): (0.2923, 0.1566, 0.7056),
        ("z", "y"): (0.3185, 0.2229, 0.7210),
        ("x", "z"): (0.2843, 0.1642, 0.7003),
        ("x", "x"): (0.8601, 0.7170, 0.9977),
        ("x", "y"): (0.7073, 0.7125, 0.6932),
        ("y", "z"): (0.6958, 0.7095, 0.7034),
        ("y", "x"): (0.7258, 0.7233, 0.7287),
        ("y", "y"): (0.8641, 0.7282, 0.9979),
    },
    "1": {
        ("z", "z"): (0.8393, 0.6852, 0.9910),
        ("z", "x"): (0.3058, 0.1378, 0.7166),
        ("z", "y"): (0.2881, 0.1304, 0.7183),
        ("x", "z"): (0.2924, 0.1360, 0.7141),
        ("x", "x"): (0.8316, 0.6892, 0.9915),
        ("x", "y"): (0.5532, 0.6826, 0.6917),
        ("y", "z"): (0.7014, 0.6950, 0.7204),
        ("y", "x"): (0.6950, 0.6808, 0.7190),
        ("y", "y"): (0.8408, 0.6812, 0.9907),
    },
}

# Bell-basis fidelity table measured on hardware for the encoded pair
# state, same column order as above.
HARDWARE_BELL_QKD = {
    ("b00", "b00"): (0.7458, 0.5369, 0.2916),
    ("b00", "b01"): (0.4715, 0.5347, 0.1650),
    ("b00", "b10"): (0.4467, 0.5541, 0.1676),
    ("b00", "b11"): (0.2860, 0.5058, 0.0749),
}

# Scalar summaries from the hardware runs of each protocol.
HARDWARE_PROTOCOL_SUMMARY = {
    "protocol1": {
        # single-mode estimation, |1> input, balanced detection
        "copies_1_to_5": {"mean_fidelity": 0.9343, "std": 0.0108},
        "copies_6_to_10": {"mean_fidelity": 0.9422, "std": 0.0138},
    },
    "protocol2": {
        "unbalanced": {"global_fidelity": 0.6983, "witness": -0.1580},
        "balanced": {"global_fidelity": 1.1004, "witness": -0.1623},
    },
    "protocol3": {
        "unbalanced": {"witness": -2.108},
        "balanced": {"witness": -2.231},
    },
}

_MODE_COLUMNS = ("pi/3", "pi/2", "simple")


def hardware_reference(command: str, initial: str = "0") -> dict | None:
    """Fixture block for a report, or None when no hardware record exists.

    The returned dict mirrors the simulated-table layout so a renderer
    can place the two side by side.
    """
    if command in ("protocol1", "protocol2", "protocol3"):
        return {"source": "hardware", "reproducible": False,
                "summary": HARDWARE_PROTOCOL_SUMMARY[command]}
    rows = {"qkd-single": HARDWARE_SINGLE_QKD.get(initial),
            "qkd-bell": HARDWARE_BELL_QKD}.get(command)
    if rows is None:
        return None
    return {"source": "hardware", "reproducible": False,
            "modes": list(_MODE_COLUMNS),
            "rows": {f"{e}-{d}": list(v) for (e, d), v in rows.items()}}
