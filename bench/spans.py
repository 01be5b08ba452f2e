"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each hetverify layer from the
outside.  It rebinds every module namespace that holds the function,
including those that imported it by name, so calls made through
`protocols.tomography_sweep` or `cli.protocol2_run` are seen too.  Each
call records one span: layer, start, end, parent span and experiment id.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

PACKAGE = "hetverify"

# Layer name -> the public functions it covers, as "module.attribute".
LAYERS = {
    "circuits.simulate": ("circuits.run_statevector",
                          "circuits.run_density_matrix"),
    "circuits.measure": ("circuits.measure_in_basis",),
    "circuits.sample": ("circuits.sample_shots",),
    "circuits.postselect": ("circuits.ShotTable.postselect",),
    "tomography.assemble": ("tomography.expectations_from_tables",),
    "tomography.sweep": ("tomography.tomography_sweep",),
    "tomography.reconstruct": ("tomography.reconstruct_multi_qubit",
                               "tomography.reconstruct_single_qubit"),
    "states.reduce": ("states.partial_trace", "states.condition_on_ancilla"),
    "metrics.score": ("metrics.fidelity", "metrics.trace_distance",
                      "metrics.total_variation_distance"),
    "protocols.run": ("protocols.protocol2_run",),
    "qkd.table": ("qkd.qkd_table",),
    "cli.parse": ("cli.parse_config",),
    "cli.report": ("cli.run_and_report",),
}


def _count_sampled(counters, args, table):
    counters["sampled"] += table.shots


def _count_postselected(counters, args, kept):
    counters["drawn"] += args[0].shots
    counters["kept"] += kept.shots


COUNTERS = {"circuits.sample": _count_sampled,
            "circuits.postselect": _count_postselected}


class Tracer:
    """Records spans for every call into a wrapped layer function."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, experiment]
        self.counters = defaultdict(int)
        self.experiment = None   # id stamped on each new span
        self._open = []          # indices of spans still running
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, layer, fn):
        count = COUNTERS.get(layer)
        spans, open_spans, counters = self.spans, self._open, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, open_spans[-1] if open_spans else None,
                    self.experiment]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def _rebind(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, *owners, attribute = target.split(".")
                owner = sys.modules.get(f"{PACKAGE}.{module_name}")
                try:
                    for name in owners:
                        owner = getattr(owner, name)
                    original = getattr(owner, attribute)
                except AttributeError:
                    raise LookupError(
                        f"layer {layer}: {PACKAGE}.{target} not found; "
                        "update LAYERS in bench/spans.py") from None
                wrapper = self._wrap(layer, original)
                if owners:
                    # A method: every importer shares the class object.
                    self._rebind(owner, attribute, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches.clear()

    def layer_totals(self) -> dict:
        """Per layer: (calls, self time in ms).  Self time is a span's
        duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ms = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            calls[layer] += 1
            self_ms[layer] += (end - start - child) * 1e3
        return {layer: (calls[layer], self_ms[layer]) for layer in LAYERS}
