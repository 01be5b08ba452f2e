"""The benchmark's workloads: seeded CLI argument lists and output checks.

One experiment is a list of `hetverify` argv lists that run back to back
and are timed as one unit.  Every input (initial state, detection angle,
noise level, program seed) is drawn from the workload seed, so the same
seed always yields the same sequence of experiments.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

BITSTRINGS = tuple("".join(bits) for bits in itertools.product("01", repeat=4))
ZETAS = ("0", "pi/2")
# (--noise-1q, --noise-2q, --readout-flip).  All are non-zero, so the noisy
# density-matrix path runs and readout flips reach the sampler.
NOISE_LEVELS = (
    ("0.005", "0.01", "0.01"),
    ("0.01", "0.02", "0.02"),
    ("0.02", "0.04", "0.03"),
)
SHOTS = "8192"
FIDELITY_SLACK = 1e-9


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _witness_experiments(rng: random.Random, exact: bool) -> Iterator[list]:
    # Each cycle visits all 96 (bitstring, zeta, noise) inputs in a seeded
    # order, so a run's timing mix does not depend on which inputs the seed
    # drew.
    combos = list(itertools.product(BITSTRINGS, ZETAS, NOISE_LEVELS))
    while True:
        rng.shuffle(combos)
        for bits, zeta, (noise_1q, noise_2q, readout) in combos:
            argv = ["protocol2", "--initial", bits, "--zeta", zeta,
                    "--shots", SHOTS, "--seed", _seed(rng),
                    "--noise-1q", noise_1q, "--noise-2q", noise_2q,
                    "--readout-flip", readout]
            yield [argv + ["--exact"]] if exact else [argv]


def _qkd_experiments(rng: random.Random) -> Iterator[list]:
    for index in itertools.count():
        seed = _seed(rng)
        yield [["qkd-single", "--initial", str(index % 2), "--seed", seed],
               ["qkd-bell", "--seed", seed]]


def check_exact_witness(result: dict) -> str | None:
    """Acceptance criterion 8 on an exact run: F <= 1 and W <= F per group."""
    for group in result["groups"]:
        fid, witness = group["global_fidelity"], group["witness_ideal"]
        if fid > 1.0 + FIDELITY_SLACK:
            return f"group {group['label']}: global fidelity {fid!r} > 1"
        if witness > fid + FIDELITY_SLACK:
            return (f"group {group['label']}: witness_ideal {witness!r} "
                    f"> global fidelity {fid!r}")
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], Iterator[list]]
    # Layers (names from spans.LAYERS) the traced run must see called, and
    # layers it must not see called.
    exercised: frozenset
    bypassed: frozenset = field(default_factory=frozenset)
    check: Callable[[dict], str | None] | None = None

    def experiments(self, seed: int) -> Iterator[list]:
        return self.generate(random.Random(seed))


_CORE = frozenset({"circuits.simulate", "tomography.sweep",
                   "tomography.reconstruct", "metrics.score",
                   "cli.parse", "cli.report"})
_SAMPLED = frozenset({"circuits.measure", "circuits.sample",
                      "circuits.postselect", "tomography.assemble"})

WORKLOADS = {w.name: w for w in (
    # The sampled 5-qubit path: 2 sweeps x 81 settings x 8192 shots per
    # experiment, where count assembly and measurement dominate.
    Workload("witness-sampled",
             lambda rng: _witness_experiments(rng, exact=False),
             _CORE | _SAMPLED | {"states.reduce", "protocols.run"}),
    # The same circuits without sampling: simulation and the exact
    # Pauli-trace path dominate, and count assembly must never run.
    Workload("witness-exact",
             lambda rng: _witness_experiments(rng, exact=True),
             _CORE | {"states.reduce", "protocols.run"},
             bypassed=frozenset({"tomography.assemble"}),
             check=check_exact_witness),
    # The paper's two QKD tables: 39 sweeps and hundreds of layer calls on
    # 1-3 qubit circuits, so per-call set-up cost shows.  Timed as one pair to avoid a two-mode
    # median.
    Workload("qkd-tables", _qkd_experiments,
             _CORE | _SAMPLED | {"qkd.table"}),
)}
