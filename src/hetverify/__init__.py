"""Dense small-register quantum simulation with heterodyne-style
fidelity estimation, witness-based verification, and basis-mismatch
tables for key-distribution channels."""

__version__ = "0.1.0"

from .states import (
    DensityMatrix,
    StateVector,
    condition_on_ancilla,
    partial_trace,
    project_to_physical,
)
from .metrics import (
    fidelity,
    total_variation_distance,
    trace_distance,
)
from .circuits import (
    Circuit,
    Gate,
    NoiseModel,
    ShotTable,
    cu3,
    gate_unitary,
    measure_in_basis,
    run_density_matrix,
    run_statevector,
    sample_shots,
    u3,
    u3_matrix,
    x,
)
from .tomography import (
    expectations_from_tables,
    pauli_strings,
    reconstruct_multi_qubit,
    reconstruct_single_qubit,
    tomography_sweep,
)
from .protocols import (
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
from .qkd import (
    qkd_table,
    threshold_verdict,
)
from .reference_data import (
    HARDWARE_BELL_QKD,
    HARDWARE_PROTOCOL_SUMMARY,
    HARDWARE_SINGLE_QKD,
    hardware_reference,
)
