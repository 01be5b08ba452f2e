"""Reconstruct a circuit output from measurement counts.

Linear-inversion tomography measures every combination of X/Y/Z on the
system qubits, turns counts into Pauli expectation values, and sums the
weighted Pauli strings back into a density matrix.  This demo shows the
exact round trip, the shot-noise scaling of the reconstruction error,
and the projection of an unphysical raw estimate back onto a valid
state.
"""
import numpy as np

from hetverify import (
    Circuit,
    cu3,
    ideal_output,
    project_to_physical,
    reconstruct_multi_qubit,
    tomography_sweep,
    trace_distance,
    u3,
)

PI = np.pi


def main():
    circuit = Circuit(2, [u3(0, PI / 2, 0, PI), cu3(0, 1, PI, 0, PI)])
    target = ideal_output(circuit)

    (exact,) = reconstruct_multi_qubit(tomography_sweep([circuit]), 2)
    print("Exact-expectation round trip, entangling circuit:")
    print(f"  trace distance to simulator output: "
          f"{trace_distance(exact, target):.2e}")

    print("\nShot-noise scaling (median over 5 seeds):")
    seeds = list(range(5))
    for shots in (2**10, 2**13, 2**16):
        sweeps = tomography_sweep([circuit] * len(seeds), shots=shots, seeds=seeds)
        dists = [trace_distance(rho, target)
                 for rho in reconstruct_multi_qubit(sweeps, 2)]
        print(f"  {shots:>6} shots: {np.median(dists):.4f}")

    print("\nRaw linear inversion can leave the physical set at low shots;")
    (noisy,) = reconstruct_multi_qubit(
        tomography_sweep([circuit], shots=64, seeds=[1]), 2)
    eigvals = np.linalg.eigvalsh(noisy.matrix)
    fixed = project_to_physical(noisy)
    print(f"  raw eigenvalues: {np.round(eigvals, 3)}")
    print(f"  after projection: "
          f"{np.round(np.linalg.eigvalsh(fixed.matrix), 3)}")


if __name__ == "__main__":
    main()
