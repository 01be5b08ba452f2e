"""Benchmark for hetverify: the paper's experiments, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real entry point `hetverify.cli.main(argv)` in-process as a
closed loop: one client in one process, each experiment sent when the
previous one has finished.  Report files go to a temporary directory in
the checkout that is removed at exit.  Every experiment's output is
checked; `failed` counts experiments with a wrong exit code, an escaping
exception or a failed output check, out of `attempted`.

--trace 0 prints the end-to-end metrics.  Experiment times are given in
"ref", multiples of the time the fixed kernel in reference.py takes right
before and after each experiment, because the shared host's speed varies
too much for wall times of separate runs to be compared; the wall-clock
figures go on the info line.  --trace 1 runs every experiment twice,
untraced and then with each layer's public functions wrapped by
spans.Tracer, and prints per-layer metrics per traced experiment plus the
tracing overhead, in ms.  The last line of standard output is the JSON
result; the line before it is the info line, which records the
environment and the wall-clock figures.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS/OpenMP thread: the benchmark is one single-threaded client.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # before and again after the timed phase
WARMUP_EXPERIMENTS = 3
WARMUP_S = 1.0
TAIL_MIN_BEYOND = 10


def setup_times(discard_first: bool) -> list:
    """Wall times of fresh interpreters that import hetverify.cli.

    The first start of a run is discarded: it may compile the package's
    bytecode.  No timeout is passed: with one, the wait polls the child in
    steps of up to 50 ms, which would quantise the measurement.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS + discard_first):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hetverify.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times[discard_first:]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
        blas_config = blas.get("openblas configuration")
    except (TypeError, KeyError):
        blas_text = blas_config = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_text, "blas_config": blas_config,
            "cpu_count": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def _non_finite(value, path="result"):
    """Path of the first number in a JSON value that is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}")
        if found:
            return found
    return None


class Client:
    """Runs experiments through the CLI entry point and checks their output."""

    def __init__(self, main, workload, outdir: str):
        self.main = main
        self.workload = workload
        self.outdir = outdir
        self.sink = io.StringIO()
        self.attempted = 0
        self.errors = []

    def run(self, experiment) -> tuple:
        """Time one experiment; return (ms, result blocks or None)."""
        self.attempted += 1
        self.sink.seek(0)
        self.sink.truncate()
        argvs = [argv + ["--output-dir", self.outdir] for argv in experiment]
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink), \
                    contextlib.redirect_stderr(self.sink):
                codes = [self.main(argv) for argv in argvs]
        except Exception as err:  # a traceback out of the CLI is a failure
            error = f"{type(err).__name__}: {err}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        results = []
        if error is None:
            for argv, code in zip(experiment, codes):
                result, error = self._check(argv, code)
                if error:
                    break
                results.append(result)
        if error:
            self.fail(experiment, error)
            return elapsed_ms, None
        return elapsed_ms, results

    def _check(self, argv, code) -> tuple:
        command = argv[0]
        if code != 0:
            return None, f"exit code {code}: {self.sink.getvalue().strip()}"
        path = os.path.join(self.outdir, f"{command.replace('-', '_')}_report.json")
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            return None, f"unreadable report {path}: {err}"
        result = report.get("result") if isinstance(report, dict) else None
        if not isinstance(result, dict):
            return None, "report has no result block"
        bad = _non_finite(result)
        if bad:
            return None, f"non-finite number at {bad}"
        error = self.workload.check(result) if self.workload.check else None
        return (None, error) if error else (result, None)

    def fail(self, experiment, error) -> None:
        self.errors.append(f"{' ; '.join(' '.join(a) for a in experiment)}: {error}")

    @property
    def failed(self) -> int:
        return len(self.errors)


def warm_up(client, experiments) -> float:
    """Run experiments until caches and lazy set-up have filled; untimed."""
    start = time.perf_counter()
    first_ms = None
    for count in itertools.count(1):
        ms, _ = client.run(next(experiments))
        first_ms = ms if first_ms is None else first_ms
        if count >= WARMUP_EXPERIMENTS and time.perf_counter() - start >= WARMUP_S:
            break
    return first_ms


def timed_phase(client, experiments, seconds, reference) -> dict:
    """Closed loop for `seconds`, timing the reference kernel between
    experiments.  Each experiment's reference time is the mean of the
    kernel times on either side of it.  The first experiment is kept for
    the determinism check."""
    samples, refs = [], []
    first = None
    completed = 0
    ref_before = reference.time_ms()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        experiment = next(experiments)
        ms, results = client.run(experiment)
        ref_after = reference.time_ms()
        samples.append(ms)
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        completed += results is not None
        if first is None:
            first = (experiment, results)
    return {"samples": samples, "refs": refs, "completed": completed,
            "first": first}


def check_repeatable(client, first) -> None:
    """Re-run one seeded experiment and compare its result blocks exactly."""
    experiment, results = first
    if results is None:
        return  # already counted as failed
    _, again = client.run(experiment)
    if again is not None and again != results:
        client.fail(experiment, "result block differs on a seeded re-run")


def tail(samples) -> tuple:
    """(percentile, value) of the nearest-rank percentile that leaves
    exactly TAIL_MIN_BEYOND samples above it; the maximum in a short run."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_MIN_BEYOND if n > TAIL_MIN_BEYOND else n
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(client, workload, seed, seconds, info) -> dict:
    from reference import Reference  # imports numpy: after thread pinning

    # Set-up is sampled at both ends of the run, so that its median spans
    # the same changes in host speed as the experiments.
    setup = setup_times(discard_first=True)
    reference = Reference()
    info["first_experiment_ms"] = warm_up(client, workload.experiments(seed))
    phase = timed_phase(client, workload.experiments(seed), seconds, reference)
    check_repeatable(client, phase["first"])
    setup += setup_times(discard_first=False)
    samples, refs = phase["samples"], phase["refs"]
    ratios = [ms / ref for ms, ref in zip(samples, refs)]
    percentile, tail_ref = tail(ratios)
    info["tail"] = {"percentile": percentile, "samples": len(samples)}
    info["wall_clock"] = {
        "experiment_ms_p50": statistics.median(samples),
        "experiment_ms_tail": tail(samples)[1],
        "experiments_per_s": 1e3 * phase["completed"] / sum(samples),
        "ref_ms_quartiles": statistics.quantiles(refs, n=4)
        if len(refs) > 1 else refs,
    }
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "experiment_ref_p50": (statistics.median(ratios), "ref"),
        "experiment_ref_tail": (tail_ref, "ref"),
        "experiments_per_kref": (1e3 * phase["completed"] / sum(ratios),
                                 "1/kref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(client, workload, seed, seconds, info) -> dict:
    """Run each experiment untraced, then traced, until `seconds` pass.

    Pairing the two runs of one input keeps a shift in machine speed out
    of the overhead estimate, and doubles as a check that tracing leaves
    every result block unchanged.
    """
    warm_up(client, workload.experiments(seed))
    experiments = workload.experiments(seed)
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        experiment = next(experiments)
        ms, results = client.run(experiment)
        plain.append(ms)
        tracer.experiment = len(traced)
        with tracer.installed():
            ms, traced_results = client.run(experiment)
        traced.append(ms)
        if None not in (results, traced_results) and traced_results != results:
            client.fail(experiment, "traced result block differs from untraced")

    totals = tracer.layer_totals()
    idle = sorted(l for l in workload.exercised if totals[l][0] == 0)
    busy = sorted(l for l in workload.bypassed if totals[l][0] > 0)
    if idle or busy:
        raise SystemExit(
            f"layer coverage: {workload.name} recorded no calls in {idle} "
            f"and unexpected calls in {busy}; check LAYERS in bench/spans.py")
    count = len(traced)
    info["traced_experiments"] = count
    info["spans"] = len(tracer.spans)
    metrics = {}
    for layer, (calls, self_ms) in totals.items():
        metrics[f"{layer}.calls"] = (calls / count, "count")
        metrics[f"{layer}.self_ms"] = (self_ms / count, "ms")
    counters = tracer.counters
    metrics["circuits.sample.shots"] = (counters["sampled"] / count, "count")
    kept_ratio = counters["kept"] / counters["drawn"] if counters["drawn"] else 0.0
    metrics["circuits.postselect.kept_ratio"] = (kept_ratio, "ratio")
    metrics["trace.overhead_ms"] = (
        statistics.median(traced) - statistics.median(plain), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hetverify" / "cli.py").is_file():
        print(f"error: no hetverify sources under {SRC}", file=sys.stderr)
        return 2

    # Pin threads before numpy loads, then import the checkout's package.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import hetverify.cli

    workload = WORKLOADS[args.workload]
    info = {"environment": environment(), "workload": workload.name,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    # On SIGTERM, unwind: the report directory is removed and a running
    # set-up interpreter is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as outdir:
            client = Client(hetverify.cli.main, workload, outdir)
            measure = per_layer if args.trace else end_to_end
            metrics = measure(client, workload, args.seed, args.seconds, info)
    finally:
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no other run still uses it

    for error in client.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
