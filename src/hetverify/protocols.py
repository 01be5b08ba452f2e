"""Fidelity-estimation and verification protocols.

Three runners share a common pattern: prepare a small register, append a
heterodyne-style detection stage (an ancilla prepared in |1> controlling
a U3(zeta, 0, 0) rotation on each system qubit), reconstruct the output
by tomography, and compare against targets.  The detection strength is
a float `zeta`, copy counts an (n, m) pair, and each runner returns its
report's `result` dict, keys in the order the report writes them.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .circuits import (
    Circuit,
    NoiseModel,
    cu3,
    gate_unitary,
    measure_in_basis,
    run_statevector,
    seed_sequence,
    u3,
    x,
)
from .metrics import (
    _pure_fidelities,
    fidelity,
    total_variation_distance,
    trace_distance,
)
from .states import (
    DensityMatrix,
    StateVector,
    _reduce,
    condition_on_ancilla,
    project_to_physical,
)
from .tomography import MAX_MEASURED_QUBITS, reconstruct_multi_qubit, tomography_sweep

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


def complementary(zeta: float) -> float:
    """The other detection strength: balanced (0) and unbalanced (pi/2)
    swap, and any other angle is its own complement."""
    if zeta == BALANCED_ZETA:
        return UNBALANCED_ZETA
    if zeta == UNBALANCED_ZETA:
        return BALANCED_ZETA
    return zeta


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
    """The two standard inequality chains linking fidelity, trace
    distance and total variation distance, each as {name, lhs, mid, rhs,
    holds}: whether lhs <= mid <= rhs, to INEQUALITY_SLACK."""
    chains = (("fuchs-van-de-graaf", 1.0 - f, math.sqrt(max(0.0, 1.0 - f * f))),
              ("tvd-trace-distance", tvd, math.sqrt(max(0.0, 1.0 - f))))
    return [{"name": name, "lhs": lhs, "mid": d, "rhs": rhs,
             "holds": lhs <= d + INEQUALITY_SLACK and d <= rhs + INEQUALITY_SLACK}
            for name, lhs, rhs in chains]


def heterodyne_stage(circuit: Circuit, zeta: float) -> Circuit:
    """Append the detection stage: prepare the ancilla in |1> and control
    a U3(zeta, 0, 0) onto each system qubit."""
    if circuit.ancilla is None:
        raise ValueError("circuit has no designated ancilla")
    return circuit.appended(
        x(circuit.ancilla),
        *(cu3(circuit.ancilla, q, zeta, 0.0, 0.0)
          for q in circuit.system_qubits))


def _prep_gates(spec, qubit: int):
    """Gates preparing one qubit: '0', '1', or an (alpha, beta) pair of
    amplitudes whose norm is finite and nonzero."""
    # An amplitude array is a pair; comparing it with "0" would go per element.
    scalar = not (isinstance(spec, np.ndarray) and spec.ndim)
    if scalar and spec in ("0", 0):
        return []
    if scalar and spec in ("1", 1):
        return [x(qubit)]
    try:
        alpha, beta = map(complex, spec)
        norm = math.hypot(abs(alpha), abs(beta))
    except (TypeError, ValueError, OverflowError):  # abs past the float range
        norm = math.nan
    if isinstance(spec, str) or not 0.0 < norm < math.inf:
        raise ValueError(f"cannot prepare {spec!r}: a qubit spec is '0', '1' or a "
                         "pair of amplitudes whose norm is finite and nonzero")
    alpha, beta = alpha / norm, beta / norm
    theta = 2.0 * math.atan2(abs(beta), abs(alpha))
    phi = float(np.angle(beta) - np.angle(alpha)) if abs(beta) > 0 else 0.0
    return [u3(qubit, theta, phi, 0.0)]


def single_mode_circuit(initial, zeta: float) -> Circuit:
    """Two-qubit estimation circuit: system on qubit 0, ancilla on 1."""
    circuit = Circuit(2, ancilla=1).appended(*_prep_gates(initial, 0))
    return heterodyne_stage(circuit, zeta)


def multi_mode_circuit(initial, zeta: float) -> Circuit:
    """Four system qubits plus ancilla; `initial` is a bitstring or a
    list of per-qubit (alpha, beta) pairs."""
    circuit = Circuit(5, ancilla=4)
    specs = list(initial)
    if len(specs) != 4:
        raise ValueError("multi-mode preparation needs 4 per-qubit specs")
    gates = []
    for q, spec in enumerate(specs):
        gates.extend(_prep_gates(spec, q))
    return heterodyne_stage(circuit.appended(*gates), zeta)


def _integers(values) -> tuple:
    """`values` as ints, with 0 for a bool, which is not a count; () if
    one is not an integer or `values` is not a sequence."""
    try:
        return tuple(0 if isinstance(v, bool) else operator.index(v) for v in values)
    except TypeError:
        return ()


def _photons_and_modes(n_photons, m_modes) -> tuple:
    """The photon and mode counts as ints, 1 <= n_photons <= m_modes <=
    MAX_MEASURED_QUBITS."""
    counts = _integers((n_photons, m_modes))
    if not counts or not 1 <= counts[0] <= counts[1]:
        raise ValueError(f"need 1 <= n_photons <= m_modes, both integers, got "
                         f"n_photons={n_photons!r}, m_modes={m_modes!r}")
    if counts[1] > MAX_MEASURED_QUBITS:
        raise ValueError(f"at most {MAX_MEASURED_QUBITS} modes supported")
    return counts


def boson_sampling_circuit(n_photons: int, m_modes: int,
                           interferometer_angles, zeta: float) -> Circuit:
    """Photon inputs on the first n qubits, a U3 per mode as the linear
    interferometer, then the detection stage."""
    n_photons, m_modes = _photons_and_modes(n_photons, m_modes)
    try:
        triples = [tuple(map(float, angles)) for angles in interferometer_angles]
    except (TypeError, ValueError, OverflowError):
        triples = []
    if len(triples) != m_modes or any(len(angles) != 3 for angles in triples):
        raise ValueError(f"need {m_modes} interferometer angle triples (theta, phi, lam), "
                         f"one per mode, got {interferometer_angles!r}")
    gates = [x(q) for q in range(n_photons)]
    gates += [u3(q, *angles) for q, angles in enumerate(triples)]
    return heterodyne_stage(Circuit(m_modes + 1, gates, ancilla=m_modes), zeta)


def _ideal_vector(circuit: Circuit) -> StateVector:
    """Noiseless circuit output as a StateVector, conditioned on the ancilla reading 1."""
    state = run_statevector(circuit)
    return state if circuit.ancilla is None else condition_on_ancilla(state, circuit.ancilla)


def ideal_output(circuit: Circuit) -> DensityMatrix:
    """Noiseless circuit output, conditioned on the ancilla reading 1, as a density."""
    return _ideal_vector(circuit).density()


def _copy_counts(copies) -> tuple:
    """The (n, m) copy counts of the two measurement groups, each an
    integer of at least 1."""
    counts = _integers(copies)
    if len(counts) != 2 or min(counts) < 1:
        raise ValueError(f"copy counts must be at least 1, each an integer, "
                         f"got copies={copies!r}")
    return counts


def _group(label: str, zeta: float, fidelities: list) -> dict:
    """One measurement group's report: its per-copy fidelities, their
    mean and their sample standard deviation."""
    arr = np.asarray(fidelities, dtype=float)
    return {"label": label, "zeta": zeta, "copy_fidelities": fidelities,
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0}


def protocol1_run(initial, zeta: float, copies=(5, 5), shots: int = None,
                  seed: int = 0, noise: NoiseModel = None) -> dict:
    """Single-mode fidelity estimation over N + M identically prepared
    copies, each reconstructed by Bloch tomography and scored against
    the ideal post-detection state."""
    n, m = _copy_counts(copies)
    circuit = single_mode_circuit(initial, zeta)
    target_vec = _ideal_vector(circuit)
    sweeps = tomography_sweep([circuit] * (n + m), shots=shots,
                              seeds=seed_sequence(seed).spawn(n + m), noise=noise)
    fidelities = [fidelity(rho, target_vec) for rho in reconstruct_multi_qubit(sweeps, 1)]
    return {"protocol": "protocol1",
            "groups": [_group("N", zeta, fidelities[:n]),
                       _group("M", zeta, fidelities[n:])],
            "target_state": target_vec.to_json()}


def _input_targets(initial) -> np.ndarray:
    """The (n, 2) amplitudes the n specs of `initial` prepare: the product
    `run_statevector` takes of their `_prep_gates` on |0>, with no circuit."""
    return np.array([functools.reduce(lambda amps, gate: gate_unitary(gate, 1) @ amps,
                                      _prep_gates(spec, 0), np.eye(2, dtype=complex)[0])
                     for spec in initial])


def _pure_factors(marginals: np.ndarray) -> np.ndarray:
    """Each trace-one matrix m of a (..., d, d) stack as a vector, its column at its
    largest diagonal entry over that entry's root; ValueError unless Tr m^2 = 1 to 1e-9."""
    if not (np.abs((np.abs(marginals) ** 2).sum(axis=(-2, -1)) - 1.0) < 1e-9).all():
        raise ValueError("the ideal output is not a product of pure qubit states")
    top = marginals.diagonal(axis1=-2, axis2=-1).real.argmax(axis=-1)[..., None, None]
    column = np.take_along_axis(marginals, top, axis=-1)[..., 0]
    return column / np.sqrt(np.take_along_axis(column, top[..., 0], axis=-1).real)


def _multi_mode_groups(groups, input_targets, shots, noise) -> tuple:
    """Tomograph and score protocol groups, each a (circuit, label, zeta,
    copies, seed) tuple; returns the group reports, the raw reconstruction
    of every copy, group by group, and each group's `_ideal_vector`.

    One sweep and one reconstruction take every copy, group by group, copy
    i of a group with child seed i of its seed.  The witness is stated for
    product targets, so `input_targets` is the (n, 2) array of the input's
    qubit vectors and `_pure_factors` reads each target's off its one-qubit
    marginals.  One gather gives those of every target and copy, and one
    batched product per group scores its copies' against each list.  The
    global fidelity is `fidelity` per copy against the target vector.
    """
    targets = [_ideal_vector(circuit) for circuit, *_ in groups]
    n = targets[0].num_qubits
    if np.shape(input_targets) != (n, 2):
        raise ValueError(f"need ({n}, 2) input target amplitudes, "
                         f"got shape {np.shape(input_targets)}")
    circuits, seeds = [], []
    for circuit, _, _, copies, seed in groups:
        circuits += [circuit] * copies
        seeds += seed_sequence(seed).spawn(copies)
    recons = reconstruct_multi_qubit(
        tomography_sweep(circuits, shots=shots, seeds=seeds, noise=noise), n)
    marginals = _reduce(np.stack([*(np.outer(t.amplitudes, t.amplitudes.conj()) for t in targets),
                                  *(r.matrix for r in recons)]),
                        tuple((q,) for q in range(n)))
    ideals = _pure_factors(marginals[:len(groups)])
    reports, start = [], 0
    for (_, label, zeta, copies, _), target, ideal in zip(groups, targets, ideals):
        rows, start = slice(start, start + copies), start + copies
        report = _group(label, zeta, [fidelity(rho, target) for rho in recons[rows]])
        report["global_fidelity"] = report["mean"]
        for key, vectors in (("ideal", ideal), ("input", input_targets)):
            red = _pure_fidelities(marginals[len(groups):][rows], vectors).mean(axis=0)
            report.update({f"reduced_fidelities_{key}": red.tolist(),
                           f"witness_{key}": fidelity_witness(red)})
        reports.append(report)
    return reports, recons, targets


def protocol2_run(initial, zeta: float, copies=(1, 1), shots: int = None,
                  seed: int = 0, noise: NoiseModel = None) -> dict:
    """Multi-mode witness estimation: N copies at the requested zeta,
    M copies at the complementary one, full 4-qubit tomography each."""
    n, m = _copy_counts(copies)
    initial = list(initial)  # read twice, so an iterator must not be used up
    input_targets = _input_targets(initial)
    specs = zip(("N", "M"), (zeta, complementary(zeta)), (n, m), seed_sequence(seed).spawn(2))
    groups = _multi_mode_groups([(multi_mode_circuit(initial, det), label, det, count, child)
                                 for label, det, count, child in specs],
                                input_targets, shots, noise)[0]
    return {"protocol": "protocol2", "groups": groups,
            "global_fidelity": groups[0]["global_fidelity"],
            "witness": groups[0]["witness_ideal"]}


def protocol3_verify(n_photons: int = 2, m_modes: int = 4,
                     interferometer_angles=None,
                     zeta: float = UNBALANCED_ZETA,
                     threshold: float = DEFAULT_THRESHOLD,
                     shots: int = None, seed: int = 0,
                     noise: NoiseModel = None) -> dict:
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
    n_photons, m_modes = _photons_and_modes(n_photons, m_modes)
    if interferometer_angles is None:
        interferometer_angles = [(math.pi / 2, math.pi / 2, math.pi / 2)] * m_modes
    circuit = boson_sampling_circuit(n_photons, m_modes,
                                     interferometer_angles, zeta)
    input_targets = _input_targets("1" * n_photons + "0" * (m_modes - n_photons))
    (group,), (raw,), (target,) = _multi_mode_groups(
        [(circuit, "N", zeta, 1, seed)], input_targets, shots, noise)
    f_global = group["copy_fidelities"][0]
    rho, ideal = project_to_physical(raw), target.density()
    dist = trace_distance(rho, ideal)
    tvd = total_variation_distance(*measure_in_basis([rho, ideal], ["Z" * m_modes])[:, 0])
    return {"protocol": "protocol3", "groups": [group],
            "global_fidelity": f_global,
            "witness": group["witness_input"],
            "trace_distance": dist,
            "tvd": tvd,
            "raw_min_eigenvalue": float(np.linalg.eigvalsh(raw.matrix)[0]),
            "threshold": threshold,
            "verdict": "accept" if f_global >= threshold else "reject",
            "bound_checks": bound_check(fidelity(rho, target), dist, tvd)}
