"""In-memory span recorder that wraps citesim's public functions from outside.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the index of the span that was open when it began (-1 for a
root), and the run id of the phase it belongs to.  Spans stay in memory
and are written out once, when the traced child ends.

This module imports only the standard library, so a traced child can load
it before ``import citesim`` and still time that import like a plain run.
"""
from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

# Per citesim module, the public functions wrapped with one span per call;
# methods are given as "Class.method".  Generators that a caller consumes item by item
# (read_edge_list, entries_above) are not wrapped: the probes time them by
# exhausting them inside a span of their own.
WRAPPED = {
    "graph": ("load_graph_files", "read_metadata", "load_graph"),
    "engine": ("compute", "converge", "crank_jaccard", "iterate_pairwise",
               "cocitation", "na_mask", "top_k"),
    "matrix": ("write_matrix_csv", "SimilarityMatrix.from_square",
               "SimilarityMatrix.row_scores", "SimilarityMatrix.row_na",
               "SimilarityMatrix.na_count"),
    "evaluate": ("load_corpus", "precision_at_m"),
}
# iteration_scores yields one square per iteration; each next() is a span.
STEPPED = ("engine", "iteration_scores")

# Modules whose namespaces hold imported references to wrapped functions;
# each reference is swapped too, so internal calls are traced as well.
NAMESPACES = ("citesim", "citesim.graph", "citesim.matrix", "citesim.engine",
              "citesim.evaluate", "citesim.cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = "op"
        self.last = {}  # span name -> last return value, for the probes
        self.calls = {}  # span name -> (args, kwargs) of its last call
        self.paused = False
        self._stack = []

    @contextmanager
    def span(self, name):
        if self.paused:
            yield {"name": name}  # recorded nowhere
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "run": self.run}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.last[name] = out
            self.calls[name] = (args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_steps(self, name, genfn):
        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                with self.span(name) as rec:
                    try:
                        item = next(it)
                    except StopIteration:
                        # the call that finds the generator exhausted is no step
                        rec["name"] = f"{name}.exhausted"
                        return
                yield item

        traced.__wrapped__ = genfn
        return traced

    def peak_alloc(self, fn, *args, **kwargs):
        """Peak bytes tracemalloc sees during ``fn(*args, **kwargs)``.

        No spans are recorded meanwhile, so tracemalloc's per-allocation
        hook slows no timed layer.
        """
        self.paused = True
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self.paused = False

    def install(self, modules):
        """Wrap the WRAPPED functions; ``modules`` maps dotted name -> module."""
        swaps = {}
        for short, names in WRAPPED.items():
            mod = modules[f"citesim.{short}"]
            for attr in names:
                owner, _, meth = attr.rpartition(".")
                span_name = f"{short}.{meth}"
                if owner:
                    cls = getattr(mod, owner)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(span_name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(span_name, raw))
                else:
                    fn = getattr(mod, attr)
                    swaps[fn] = self.wrap(span_name, fn)
        short, attr = STEPPED
        fn = getattr(modules[f"citesim.{short}"], attr)
        swaps[fn] = self.wrap_steps(f"{short}.{attr}", fn)
        for ns in NAMESPACES:
            mod = modules[ns]
            for key, value in list(vars(mod).items()):
                if callable(value) and value in swaps:
                    setattr(mod, key, swaps[value])


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_table(spans):
    """name -> {calls, total_s, self_s}, summed over every span of that name."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return table
