"""In-memory spans around calls into the ordlattice modules.

The tracer wraps public (and dispatcher-internal) functions of the package
from the outside: every module-level name bound to a traced function is
rebound to a timing wrapper for the length of a ``with tracer.active():``
block, then restored.  Nothing inside ``src/ordlattice`` is changed.

A span is ``(layer, start, end, parent, question, size)``.  Calls nest, so
the self time of a span is its duration minus the durations of its direct
children; summing self times never counts a nanosecond twice.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
from time import perf_counter

from ordlattice import accum, algebra, cli, core, solvers


def _size(arg):
    return getattr(arg, "size", 0)


# layer name -> (owner, attribute, size of the call's input from its arguments)
TARGETS = {
    "cli.run": [(cli, "run", None)],
    "cli.load_database": [(cli, "load_database", None)],
    "cli.parse_query": [(cli, "parse_query", None)],
    "core.validate_po_relation": [(core, "validate_po_relation", lambda a: len(a[1]))],
    "algebra.evaluate": [(algebra, "evaluate", None)],
    "algebra.dirprod": [(algebra, "po_dirprod", lambda a: _size(a[0]) * _size(a[1]))],
    "algebra.lexprod": [(algebra, "po_lexprod", lambda a: _size(a[0]) * _size(a[1]))],
    "algebra.union": [(algebra, "po_union", lambda a: _size(a[0]) + _size(a[1]))],
    "algebra.selection": [(algebra, "po_selection", lambda a: _size(a[1]))],
    "algebra.projection": [(algebra, "po_projection", lambda a: _size(a[1]))],
    "algebra.dup_elim": [(algebra, "dup_elim", lambda a: _size(a[0]))],
    "algebra.concat": [(algebra, "po_concat", lambda a: _size(a[0]) + _size(a[1]))],
    "core.hasse_edges": [(core.PoRelation, "hasse_edges", lambda a: _size(a[0]))],
    "core.width_and_chain_partition": [(core, "width_and_chain_partition", lambda a: _size(a[0]))],
    "core.ia_partition": [(core, "ia_partition", lambda a: _size(a[0]))],
    "solvers.chain_dp": [(solvers, "poss_bounded_width_dp", lambda a: _size(a[0]))],
    "solvers.finishing_dp": [(solvers, "poss_union_width_iawidth", lambda a: _size(a[0]) + _size(a[1]))],
    "accum.value_dp": [
        (accum, "_bounded_width_table", lambda a: _size(a[1])),
        (accum, "_noprod_union_table", lambda a: _size(a[1]) + _size(a[2])),
    ],
    "accum.fold": [(accum, "accumulate_list", lambda a: len(a[1]))],
    "solvers.matching": [(solvers, "_dedup_pair", lambda a: _size(a[0])), (solvers, "poss_cert_dedup", None)],
    "solvers.cert_list": [(solvers, "_cert_list", lambda a: _size(a[0]))],
    "solvers.safe_swaps": [(solvers, "cert_safe_swaps", lambda a: _size(a[1]))],
    "solvers.position": [(solvers, "select_at_k", None), (solvers, "top_k", None), (solvers, "tuple_precedence", None)],
    "solvers.backtracking": [(solvers, "poss_backtracking", lambda a: _size(a[0])), (solvers, "_accum_bruteforce", lambda a: _size(a[1]))],
    # entry points: their self time is dispatch work (shape checks, input
    # widths, bag comparisons) after evaluate and the solver spans are removed
    "solvers.dispatch": [
        (solvers, name, None)
        for name in ("poss", "cert", "poss_accum", "cert_accum", "poss_group_by", "cert_group_by")
    ],
}
LAYERS = tuple(TARGETS)

# layers whose self time is fitted against input size over the sweep questions
SCALING = ("solvers.chain_dp", "core.width_and_chain_partition", "algebra.dirprod")


class Tracer:
    """Collects spans; ``question`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.question = None
        self._stack = []

    def _wrap(self, layer, fn, size_of):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self.question is None:  # set-up and answer checking stay untraced
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.question, size_of(args) if size_of else 0)

        return traced

    @contextlib.contextmanager
    def active(self):
        """Rebind every traced function in every ordlattice module, then restore."""
        modules = [m for name, m in sys.modules.items() if name == "ordlattice" or name.startswith("ordlattice.")]
        restore = []
        for layer, targets in TARGETS.items():
            for owner, attr, size_of in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, size_of)
                holders = [owner] + [m for m in modules if m is not owner]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, name, value))
                            setattr(holder, name, wrapper)
        try:
            yield self
        finally:
            for holder, name, value in reversed(restore):
                setattr(holder, name, value)

    def self_times(self):
        """Per span: (layer, self seconds, question, size)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (layer, end - start - child[i], question, size)
            for i, (layer, start, end, parent, question, size) in enumerate(self.spans)
        ]

    def write(self, path):
        """One JSON object per span, in opening order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, question, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer, "start": start, "end": end,
                                     "parent": parent, "question": question, "size": size}) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """``<layer>.busy_ms`` and ``.calls`` per pass, ``.p50_ms`` of self time per call."""
    per_layer = {layer: [] for layer in LAYERS}
    for layer, self_s, _, _ in tracer.self_times():
        per_layer[layer].append(self_s)
    out = {}
    for layer, times in per_layer.items():
        out[f"{layer}.busy_ms"] = (1000 * math.fsum(times) / passes, "ms")
        out[f"{layer}.calls"] = (len(times) / passes, "count")
        out[f"{layer}.p50_ms"] = (1000 * statistics.median(times) if times else 0.0, "ms")
    return out


def scaling_exponents(tracer: Tracer, sweep: set) -> dict:
    """Least-squares slope of log(median self time) against log(input size).

    Only spans of the questions in ``sweep`` count.  Spans are grouped by
    input size; a layer seen at fewer than three sizes, or over less than a
    doubling of size, reports 0 (not measured on this workload).
    """
    by_size = {layer: {} for layer in SCALING}
    for layer, self_s, question, size in tracer.self_times():
        if layer in by_size and question in sweep and size > 0 and self_s > 0:
            by_size[layer].setdefault(size, []).append(self_s)
    out = {}
    for layer, groups in by_size.items():
        exponent = 0.0
        if len(groups) >= 3 and max(groups) >= 2 * min(groups):
            xs = [math.log(n) for n in groups]
            ys = [math.log(statistics.median(ts)) for ts in groups.values()]
            exponent = statistics.linear_regression(xs, ys).slope
        out[f"scaling.{layer}.exponent"] = (exponent, "power")
    return out

