"""Outside-in tracing for the benchmark: spans around gridlab's layer functions.

Nothing under ``src/`` is edited. ``Tracer.install`` replaces a function in
every gridlab module that binds it (``from .grids import core_elements``
binds the name again in the importing module), so calls from inside the
library are traced as well as calls from the benchmark. Spans stay in memory
and are folded into per-pass layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). The span name is "<layer>/<function>".
TARGETS = (
    ("gridlab.cli", "run", "cli.run/run"),
    ("gridlab.fileio", "make_certificate", "fileio.certificate/make_certificate"),
    ("gridlab.fileio", "coloring_payload", "fileio.certificate/coloring_payload"),
    ("gridlab.fileio", "save_certificate", "fileio.certificate/save_certificate"),
    ("gridlab.fileio", "load_certificate", "fileio.certificate/load_certificate"),
    ("gridlab.fileio", "canonical_json", "fileio.certificate/canonical_json"),
    ("gridlab.fileio", "load_coloring", "fileio.coloring_io/load_coloring"),
    ("gridlab.fileio", "save_coloring", "fileio.coloring_io/save_coloring"),
    ("gridlab.ramsey", "_stable_hash", "ramsey.coloring/_stable_hash"),
    ("gridlab.ramsey", "reduce_subposet_to_subgrid", "ramsey.reduce/reduce_subposet_to_subgrid"),
    ("gridlab.ramsey", "reduce_comparability_to_subgrid",
     "ramsey.reduce/reduce_comparability_to_subgrid"),
    ("gridlab.ramsey", "find_monochromatic_subgrid", "ramsey.mono_scan/find_monochromatic_subgrid"),
    ("gridlab.ramsey", "find_monochromatic_copy", "ramsey.mono_copy/find_monochromatic_copy"),
    ("gridlab.ramsey", "enumerate_induced_copy_sets", "ramsey.copies/enumerate_induced_copy_sets"),
    ("gridlab.ramsey", "verify_comparability_ramsey", "ramsey.verify/verify_comparability_ramsey"),
    ("gridlab.ramsey", "verify_grid_ramsey", "ramsey.verify/verify_grid_ramsey"),
    ("gridlab.ramsey", "min_ramsey_n", "ramsey.verify/min_ramsey_n"),
    ("gridlab.ramsey", "search_counterexample", "ramsey.engine/search_counterexample"),
    ("gridlab.ramsey", "_parallel_counterexample", "ramsey.engine/_parallel_counterexample"),
    ("gridlab.ramsey", "realizer_type_probe", "ramsey.probe/realizer_type_probe"),
    ("gridlab.grids", "core", "grids.core/core"),
    ("gridlab.grids", "core_elements", "grids.core/core_elements"),
    ("gridlab.grids", "grid", "grids.grid/grid"),
    ("gridlab.extension", "partition_ramsey_search", "extension.partition/partition_ramsey_search"),
    ("gridlab.graphs", "find_mono_induced_subgraph", "graphs.induced/find_mono_induced_subgraph"),
    ("gridlab.poset", "is_isomorphic", "poset.iso/is_isomorphic"),
    ("gridlab.poset", "automorphisms", "poset.iso/automorphisms"),
    ("gridlab.poset", "linear_extensions", "poset.extensions/linear_extensions"),
    ("gridlab.booldim", "boolean_dim", "booldim.dim/boolean_dim"),
)


def _result_size(result, args, kwargs):
    return len(result)


def _reduced_keys(result, args, kwargs):
    return len(result.assignment)


def _scan_cells(result, args, kwargs):
    """Cells an exhaustive scan visits; None when it stopped at a witness."""
    if result is not None:
        return None
    n, t, m, l = args[:4]
    return math.comb(n, l) ** t * math.comb(l, m) ** t


# Span name -> function of (result, args, kwargs) giving the span's work count.
EXTRAS = {
    "ramsey.reduce/reduce_subposet_to_subgrid": _reduced_keys,
    "ramsey.reduce/reduce_comparability_to_subgrid": _reduced_keys,
    "ramsey.mono_scan/find_monochromatic_subgrid": _scan_cells,
    "ramsey.copies/enumerate_induced_copy_sets": _result_size,
}

# Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same.
PER_LAYER = (
    ("cli.run.self_s", "s", "lower"),
    ("fileio.certificate_s", "s", "lower"),
    ("fileio.coloring_io_s", "s", "lower"),
    ("ramsey.coloring_s", "s", "lower"),
    ("ramsey.coloring.calls", "count", "lower"),
    ("ramsey.reduce_s", "s", "lower"),
    ("ramsey.reduce.keys_per_s", "keys/s", "higher"),
    ("grids.core_s", "s", "lower"),
    ("grids.core.calls", "count", "lower"),
    ("grids.grid_s", "s", "lower"),
    ("ramsey.mono_scan_s", "s", "lower"),
    ("ramsey.mono_scan.cells_per_s", "cells/s", "higher"),
    ("ramsey.mono_copy_s", "s", "lower"),
    ("ramsey.copies_s", "s", "lower"),
    ("ramsey.copies.per_s", "copies/s", "higher"),
    ("ramsey.verify.self_s", "s", "lower"),
    ("ramsey.engine_s", "s", "lower"),
    ("ramsey.engine.calls", "count", "lower"),
    ("ramsey.engine.nodes_per_s", "nodes/s", "higher"),
    ("ramsey.engine.rerun_s", "s", "lower"),
    ("ramsey.probe_s", "s", "lower"),
    ("extension.partition_s", "s", "lower"),
    ("graphs.induced_s", "s", "lower"),
    ("graphs.induced.searches", "count", "lower"),
    ("poset.iso_s", "s", "lower"),
    ("poset.extensions_s", "s", "lower"),
    ("booldim.dim_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans as [name, start, end, parent index, request id, work]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = None
        self.active = False
        self._installed: list = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gridlab" or key.startswith("gridlab."))]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, EXTRAS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        del self.spans[:]
        return out


def layer_metrics(spans: list, stress_request=None, stress_guard: int = 0) -> dict:
    """Per-layer metrics of one pass; a layer's self time excludes child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    layer_of = [span[0].split("/")[0] for span in spans]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    work_s = defaultdict(float)
    rerun_s = 0.0
    stress_engine_s = 0.0
    for i, (name, start, end, parent, request, extra) in enumerate(spans):
        layer = layer_of[i]
        dur = end - start
        self_s[layer] += dur - child[i]
        if parent < 0 or layer_of[parent] != layer:
            calls[layer] += 1
            if layer == "ramsey.engine" and request == stress_request:
                stress_engine_s += dur
        if extra is not None:
            work[layer] += extra
            work_s[layer] += dur
        if (name == "ramsey.engine/search_counterexample" and parent >= 0
                and spans[parent][0] == "ramsey.engine/_parallel_counterexample"):
            rerun_s += dur

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "cli.run.self_s": self_s["cli.run"],
        "fileio.certificate_s": self_s["fileio.certificate"],
        "fileio.coloring_io_s": self_s["fileio.coloring_io"],
        "ramsey.coloring_s": self_s["ramsey.coloring"],
        "ramsey.coloring.calls": calls["ramsey.coloring"],
        "ramsey.reduce_s": self_s["ramsey.reduce"],
        "ramsey.reduce.keys_per_s": rate(work["ramsey.reduce"], work_s["ramsey.reduce"]),
        "grids.core_s": self_s["grids.core"],
        "grids.core.calls": calls["grids.core"],
        "grids.grid_s": self_s["grids.grid"],
        "ramsey.mono_scan_s": self_s["ramsey.mono_scan"],
        "ramsey.mono_scan.cells_per_s": rate(work["ramsey.mono_scan"],
                                             work_s["ramsey.mono_scan"]),
        "ramsey.mono_copy_s": self_s["ramsey.mono_copy"],
        "ramsey.copies_s": self_s["ramsey.copies"],
        "ramsey.copies.per_s": rate(work["ramsey.copies"], work_s["ramsey.copies"]),
        "ramsey.verify.self_s": self_s["ramsey.verify"],
        "ramsey.engine_s": self_s["ramsey.engine"],
        "ramsey.engine.calls": calls["ramsey.engine"],
        "ramsey.engine.nodes_per_s": rate(stress_guard, stress_engine_s),
        "ramsey.engine.rerun_s": rerun_s,
        "ramsey.probe_s": self_s["ramsey.probe"],
        "extension.partition_s": self_s["extension.partition"],
        "graphs.induced_s": self_s["graphs.induced"],
        "graphs.induced.searches": calls["graphs.induced"],
        "poset.iso_s": self_s["poset.iso"],
        "poset.extensions_s": self_s["poset.extensions"],
        "booldim.dim_s": self_s["booldim.dim"],
    }
