"""Fidelity-estimation and verification protocols.

Three runners share a common pattern: prepare a small register, append a
heterodyne-style detection stage (an ancilla prepared in |1> controlling
a U3(zeta, 0, 0) rotation on each system qubit), reconstruct the output
by tomography, and compare against targets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    Circuit,
    NoiseModel,
    cu3,
    measure_in_basis,
    run_statevector,
    seed_sequence,
    u3,
    x,
)
from .metrics import _pure_component, fidelity, total_variation_distance, trace_distance
from .states import (
    DensityMatrix,
    StateVector,
    condition_on_ancilla,
    partial_trace,
    project_to_physical,
)
from .tomography import (MAX_MEASURED_QUBITS, reconstruct_multi_qubit, reduced_fidelities,
                         tomography_sweep)

BALANCED_ZETA = 0.0
UNBALANCED_ZETA = math.pi / 2
DEFAULT_THRESHOLD = 0.6
INEQUALITY_SLACK = 1e-9


def format_angle(value: float) -> str:
    """Symbolic form when the angle is a simple pi fraction."""
    for num in range(-4, 5):
        for den in (1, 2, 3, 4, 6):
            if num and math.gcd(abs(num), den) == 1 \
                    and abs(value - num * math.pi / den) < 1e-12:
                frac = "pi" if abs(num) == 1 else f"{abs(num)}pi"
                sign = "-" if num < 0 else ""
                return f"{sign}{frac}/{den}" if den > 1 else f"{sign}{frac}"
    if value == 0:
        return "0"
    return repr(value)


@dataclass(frozen=True)
class HeterodyneSetting:
    """Detection strength: zeta=0 balanced, zeta=pi/2 unbalanced."""

    zeta: float

    @classmethod
    def balanced(cls) -> "HeterodyneSetting":
        return cls(BALANCED_ZETA)

    @classmethod
    def unbalanced(cls) -> "HeterodyneSetting":
        return cls(UNBALANCED_ZETA)

    @property
    def mode(self) -> str:
        if self.zeta == BALANCED_ZETA:
            return "balanced"
        if self.zeta == UNBALANCED_ZETA:
            return "unbalanced"
        return "custom"

    def complementary(self) -> "HeterodyneSetting":
        if self.mode == "balanced":
            return HeterodyneSetting.unbalanced()
        if self.mode == "unbalanced":
            return HeterodyneSetting.balanced()
        return self


@dataclass(frozen=True)
class CopyPlan:
    """How many state copies each measurement group receives."""

    n: int = 5
    m: int = 5

    def __post_init__(self):
        if min(self.n, self.m) < 1:
            raise ValueError("copy counts must be at least 1")


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    mid: float
    rhs: float
    holds: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class GroupResult:
    """Results for one measurement group (one detection setting)."""

    label: str
    zeta: float
    copy_fidelities: list = field(default_factory=list)
    mean: float = None
    std: float = None
    global_fidelity: float = None
    reduced_fidelities_ideal: list = None
    witness_ideal: float = None
    reduced_fidelities_input: list = None
    witness_input: float = None

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass
class ProtocolReport:
    protocol: str
    groups: list
    global_fidelity: float = None
    witness: float = None
    trace_distance: float = None
    tvd: float = None
    raw_min_eigenvalue: float = None
    threshold: float = None
    verdict: str = None
    bound_checks: list = None
    target_state: StateVector = None

    def to_json(self) -> dict:
        """Every field that is set, in field order; the groups, bound
        checks and target state as their own JSON."""
        return {k: _jsonable(v) for k, v in vars(self).items() if v is not None}


def _jsonable(value):
    """`value`, or a list of values, with each to_json object replaced by its JSON."""
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def fidelity_witness(per_qubit_fidelities) -> float:
    """Lower bound on the global fidelity from single-qubit marginals:
    W = 1 - sum_i (1 - F_i).  Can be negative; equals 1 only when every
    marginal matches its target exactly.
    """
    fids = list(per_qubit_fidelities)
    if not fids:
        raise ValueError("need at least one per-qubit fidelity")
    return float(1.0 - sum(1.0 - f for f in fids))


def bound_check(f: float, d: float, tvd: float) -> list:
    """Evaluate the two standard inequality chains linking fidelity,
    trace distance, and total variation distance."""
    one_minus_f2 = max(0.0, 1.0 - f * f)
    one_minus_f = max(0.0, 1.0 - f)
    chains = [
        BoundCheck(
            "fuchs-van-de-graaf", 1.0 - f, d, math.sqrt(one_minus_f2),
            1.0 - f <= d + INEQUALITY_SLACK
            and d <= math.sqrt(one_minus_f2) + INEQUALITY_SLACK,
        ),
        BoundCheck(
            "tvd-trace-distance", tvd, d, math.sqrt(one_minus_f),
            tvd <= d + INEQUALITY_SLACK
            and d <= math.sqrt(one_minus_f) + INEQUALITY_SLACK,
        ),
    ]
    return chains


def heterodyne_stage(circuit: Circuit, setting: HeterodyneSetting) -> Circuit:
    """Append the detection stage: prepare the ancilla in |1> and control
    a U3(zeta, 0, 0) onto each system qubit."""
    if circuit.ancilla is None:
        raise ValueError("circuit has no designated ancilla")
    return circuit.appended(
        x(circuit.ancilla),
        *(cu3(circuit.ancilla, q, setting.zeta, 0.0, 0.0)
          for q in circuit.system_qubits))


def _prep_gates(spec, qubit: int):
    """Gates preparing one qubit: '0', '1', or an (alpha, beta) pair."""
    if spec in ("0", 0):
        return []
    if spec in ("1", 1):
        return [x(qubit)]
    alpha, beta = complex(spec[0]), complex(spec[1])
    norm = math.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / norm, beta / norm
    theta = 2.0 * math.atan2(abs(beta), abs(alpha))
    phi = float(np.angle(beta) - np.angle(alpha)) if abs(beta) > 0 else 0.0
    return [u3(qubit, theta, phi, 0.0)]


def single_mode_circuit(initial, setting: HeterodyneSetting) -> Circuit:
    """Two-qubit estimation circuit: system on qubit 0, ancilla on 1."""
    circuit = Circuit(2, ancilla=1).appended(*_prep_gates(initial, 0))
    return heterodyne_stage(circuit, setting)


def multi_mode_circuit(initial, setting: HeterodyneSetting) -> Circuit:
    """Four system qubits plus ancilla; `initial` is a bitstring or a
    list of per-qubit (alpha, beta) pairs."""
    circuit = Circuit(5, ancilla=4)
    specs = list(initial)
    if len(specs) != 4:
        raise ValueError("multi-mode preparation needs 4 per-qubit specs")
    gates = []
    for q, spec in enumerate(specs):
        gates.extend(_prep_gates(spec, q))
    return heterodyne_stage(circuit.appended(*gates), setting)


def boson_sampling_circuit(n_photons: int, m_modes: int,
                           interferometer_angles, setting: HeterodyneSetting) -> Circuit:
    """Photon inputs on the first n qubits, a U3 per mode as the linear
    interferometer, then the detection stage."""
    if not 1 <= n_photons <= m_modes:
        raise ValueError("need 1 <= n_photons <= m_modes")
    if m_modes > MAX_MEASURED_QUBITS:
        raise ValueError(f"at most {MAX_MEASURED_QUBITS} modes supported")
    circuit = Circuit(m_modes + 1, ancilla=m_modes)
    gates = [x(q) for q in range(n_photons)]
    for q in range(m_modes):
        theta, phi, lam = interferometer_angles[q]
        gates.append(u3(q, theta, phi, lam))
    return heterodyne_stage(circuit.appended(*gates), setting)


def ideal_output(circuit: Circuit) -> DensityMatrix:
    """Noiseless circuit output, conditioned on the ancilla reading 1."""
    state = run_statevector(circuit).density()
    if circuit.ancilla is not None:
        state = condition_on_ancilla(state, circuit.ancilla, 1)
    return state


def _mean_std(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def _reconstruct_copies(circuit: Circuit, copies: int, shots, seed,
                        noise) -> list:
    """Tomograph `copies` runs of `circuit` over its system qubits, one
    child seed of `seed` per copy."""
    return [reconstruct_multi_qubit(
                tomography_sweep(circuit, shots=shots, seed=child, noise=noise),
                len(circuit.system_qubits))
            for child in seed_sequence(seed).spawn(copies)]


def protocol1_run(initial, setting: HeterodyneSetting, plan: CopyPlan = None,
                  shots: int = None, seed: int = 0,
                  noise: NoiseModel = None) -> ProtocolReport:
    """Single-mode fidelity estimation over N + M identically prepared
    copies, each reconstructed by Bloch tomography and scored against
    the ideal post-detection state."""
    plan = plan or CopyPlan()
    circuit = single_mode_circuit(initial, setting)
    target = ideal_output(circuit)
    fidelities = [fidelity(rho, target) for rho in _reconstruct_copies(
        circuit, plan.n + plan.m, shots, seed, noise)]
    groups = []
    for label, chunk in (("N", fidelities[:plan.n]), ("M", fidelities[plan.n:])):
        mean, std = _mean_std(chunk)
        groups.append(GroupResult(label, setting.zeta, list(chunk), mean, std))
    target_vec = StateVector(1, _pure_component(target))
    return ProtocolReport("protocol1", groups, target_state=target_vec)


def _input_targets(initial) -> list:
    """The single-qubit density matrix _prep_gates prepares from each spec."""
    return [run_statevector(Circuit(1, _prep_gates(spec, 0))).density()
            for spec in initial]


def _multi_mode_group(circuit: Circuit, label: str, zeta: float, copies: int,
                      input_targets, shots, seed, noise) -> tuple:
    """Tomograph `copies` runs of a multi-mode circuit; returns the group
    result and the per-copy raw reconstructions."""
    target = ideal_output(circuit)
    ideal_targets = [partial_trace(target, [q]) for q in range(target.num_qubits)]
    recons = _reconstruct_copies(circuit, copies, shots, seed, noise)
    globals_, ideals, inputs = [], [], []
    for rho in recons:
        globals_.append(fidelity(rho, target))
        # Each marginal is traced once and scored against both target lists.
        marginals = [partial_trace(rho, [q]) for q in range(rho.num_qubits)]
        ideals.append(reduced_fidelities(marginals, ideal_targets))
        inputs.append(reduced_fidelities(marginals, input_targets))
    mean, std = _mean_std(globals_)
    red_ideal = list(np.mean(ideals, axis=0))
    red_input = list(np.mean(inputs, axis=0))
    group = GroupResult(
        label, zeta, list(globals_), mean, std,
        global_fidelity=mean,
        reduced_fidelities_ideal=[float(v) for v in red_ideal],
        witness_ideal=fidelity_witness(red_ideal),
        reduced_fidelities_input=[float(v) for v in red_input],
        witness_input=fidelity_witness(red_input),
    )
    return group, recons, target


def protocol2_run(initial, setting: HeterodyneSetting, plan: CopyPlan = None,
                  shots: int = None, seed: int = 0,
                  noise: NoiseModel = None) -> ProtocolReport:
    """Multi-mode witness estimation: N copies at the requested setting,
    M copies at the complementary one, full 4-qubit tomography each."""
    plan = plan or CopyPlan(n=1, m=1)
    input_targets = _input_targets(initial)
    seeds = seed_sequence(seed).spawn(2)
    groups = []
    for label, det, copies, child in (
        ("N", setting, plan.n, seeds[0]),
        ("M", setting.complementary(), plan.m, seeds[1]),
    ):
        circuit = multi_mode_circuit(initial, det)
        group, _, _ = _multi_mode_group(circuit, label, det.zeta, copies,
                                        input_targets, shots, child, noise)
        groups.append(group)
    head = groups[0]
    return ProtocolReport(
        "protocol2", groups,
        global_fidelity=head.global_fidelity,
        witness=head.witness_ideal,
    )


def protocol3_verify(n_photons: int = 2, m_modes: int = 4,
                     interferometer_angles=None,
                     setting: HeterodyneSetting = None,
                     threshold: float = DEFAULT_THRESHOLD,
                     shots: int = None, seed: int = 0,
                     noise: NoiseModel = None) -> ProtocolReport:
    """Threshold verification of a sampled interferometer output.

    The headline witness uses the photon-occupation targets (|1> on the
    first n modes, |0> elsewhere); the ideal-output witness is reported
    alongside.  Accept iff the global fidelity reaches the threshold.
    The fidelity, witness and verdict read the raw reconstruction.  The
    trace distance, the TVD and the inequality chains, which hold only
    for states, read its physical projection; the raw reconstruction's
    minimum eigenvalue says how far it was from one.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    setting = setting or HeterodyneSetting.unbalanced()
    if interferometer_angles is None:
        interferometer_angles = [(math.pi / 2, math.pi / 2, math.pi / 2)] * m_modes
    circuit = boson_sampling_circuit(n_photons, m_modes,
                                     interferometer_angles, setting)
    input_targets = _input_targets(
        ["1"] * n_photons + ["0"] * (m_modes - n_photons))
    group, recons, target = _multi_mode_group(
        circuit, "N", setting.zeta, 1, input_targets, shots,
        seed_sequence(seed), noise)
    raw = recons[0]
    f_global = group.copy_fidelities[0]
    rho = project_to_physical(raw)
    dist = trace_distance(rho, target)
    p_rho = measure_in_basis(rho, "Z" * m_modes)
    p_sigma = measure_in_basis(target, "Z" * m_modes)
    tvd = total_variation_distance(p_rho, p_sigma)
    verdict = "accept" if f_global >= threshold else "reject"
    return ProtocolReport(
        "protocol3", [group],
        global_fidelity=f_global,
        witness=group.witness_input,
        trace_distance=dist,
        tvd=tvd,
        raw_min_eigenvalue=float(np.linalg.eigvalsh(raw.matrix)[0]),
        threshold=threshold,
        verdict=verdict,
        bound_checks=bound_check(fidelity(rho, target), dist, tvd),
    )
