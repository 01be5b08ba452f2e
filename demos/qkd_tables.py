"""Basis-mismatch fidelity tables for key-distribution channels.

Encoding in one Pauli basis and decoding in another leaves a telltale
fidelity signature.  Adding the detection stage with zeta = pi/3 widens
the gap between matched and mismatched bases compared with plain
fidelity estimation, which makes thresholding more reliable.  The last
section prints the hardware record next to the simulated values.
"""
from hetverify import qkd_table, threshold_verdict
from hetverify.qkd import BALANCED_QKD_ZETA, SINGLE_PAIR_ORDER
from hetverify.reference_data import hardware_reference


def print_table(table):
    header = "  ".join(f"{m:>8}" for m in table["modes"])
    print(f"  {'pair':>8}  {header}")
    for pair, values in table["rows"].items():
        row = "  ".join(f"{values[m]:8.4f}" for m in table["modes"])
        print(f"  {pair:>8}  {row}")


def main():
    print("Single-qubit table, initial |0>, exact backend")
    single = qkd_table("0", shots=None)
    print_table(single)

    rows = single["rows"]
    matched = ["z-z", "x-x", "y-y"]
    mismatch = ["z-x", "z-y", "x-z"]
    gap_bal = (min(rows[p]["pi/3"] for p in matched)
               - max(rows[p]["pi/3"] for p in mismatch))
    gap_simple = (min(rows[p]["simple"] for p in matched)
                  - max(rows[p]["simple"] for p in mismatch))
    print(f"\n  matched-vs-mismatched gap: {gap_bal:.4f} at zeta=pi/3 "
          f"vs {gap_simple:.4f} plain ({gap_bal / gap_simple:.1f}x wider)")

    print("\nBell-basis table, initial |00>, exact backend")
    bell = qkd_table("00", shots=None)
    print_table(bell)

    print("\nThreshold verdicts at zeta=pi/3 (accept only matched bases)")
    for pair, verdict in threshold_verdict(single, BALANCED_QKD_ZETA).items():
        print(f"  {pair:>8}: {verdict}")

    print("\nHardware record for comparison (display only, not reproduced):")
    block = hardware_reference("qkd-single", "0")
    for pair in SINGLE_PAIR_ORDER:
        values = block["rows"]["-".join(pair)]
        row = "  ".join(f"{v:8.4f}" for v in values)
        print(f"  {'-'.join(pair):>8}  {row}")


if __name__ == "__main__":
    main()
