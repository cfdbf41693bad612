"""In-memory spans around the epsap layers, recorded from outside the program.

The tracer replaces public functions by timing wrappers at the module
attributes their callers resolve at call time.  For example ``search.py``
binds ``region_add_point`` by ``from .geometry import``, so the wrapper goes
on ``epsap.search.region_add_point``; the CLI calls ``geometry.recognize_ap``
through the module, so that attribute is wrapped too.

Each query is one trace.  A span records its trace, its own id, the id of
the span that called it (0 for the query itself), its layer, start and end.
Leaf layers, which call no other wrapped function and run up to millions of
times a query, are aggregated per (trace, parent, layer) into calls, busy
seconds and a tally, so memory stays flat.  Self time is a span's duration
minus its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, layer, leaf, tally) -- tally names the count per call
# that a ratio or byte total needs (see _TALLY), or is None.
WRAPPED = (
    ("search", "region_add_point", "geometry.region_add_point", True, None),
    ("search", "region_closed_empty", "geometry.region_closed_empty", True, "true"),
    ("search", "recognize_ap", "geometry.recognize_ap", True, "not_none"),
    ("geometry", "recognize_ap", "geometry.recognize_ap", True, "not_none"),
    ("geometry", "min_enclosing_ball", "geometry.min_enclosing_ball", True, None),
    ("geometry", "recognize_cube", "geometry.recognize_cube", False, "feasible"),
    ("density", "recognize_cube", "geometry.recognize_cube", False, "feasible"),
    ("density", "verify_cube_free", "density.verify_cube_free", False, None),
    ("search", "enumerate_eps_aps", "search", False, None),
    ("search", "find_eps_ap_in_points", "search", False, None),
    ("search", "exact_W", "search", False, None),
    ("search", "exact_f", "search", False, None),
    ("search", "max_exact_ap_free", "search", False, None),
    ("colorings", "verify_no_mono_ap", "colorings.verify_no_mono_ap", False, None),
    ("colorings", "build_blowup_1d", "colorings.build", False, None),
    ("colorings", "build_simple_r2_coloring", "colorings.build", False, None),
    ("colorings", "lower_bound_params", "colorings.build", False, None),
    ("colorings", "build_lower_bound_coloring", "colorings.build", False, None),
    ("density", "build_behrend_digit_set", "density.build", False, None),
    ("density", "build_cube_blowup", "density.build", False, None),
    ("density", "product_free_set", "density.build", False, None),
    ("formats", "read_set", "formats", True, "text_in"),
    ("formats", "read_coloring", "formats", True, "text_in"),
    ("formats", "write_set", "formats", True, "text_out"),
    ("formats", "write_coloring", "formats", True, "text_out"),
    ("formats", "write_hypergraph", "formats", True, "text_out"),
    ("formats", "witness1d_json", "formats", True, None),
    ("formats", "witness_md_json", "formats", True, None),
)

_TALLY = {
    None: lambda args, result: 0,
    "true": lambda args, result: int(result is True),
    "not_none": lambda args, result: int(result is not None),
    "feasible": lambda args, result: int(result.status == "feasible"),
    "text_in": lambda args, result: len(args[0].encode("utf-8")),
    "text_out": lambda args, result: len(result.encode("utf-8")),
}


@dataclass
class Span:
    trace: int
    span: int
    parent: int
    layer: str
    start: float
    end: float = 0.0
    tally: int = 0


@dataclass
class Tracer:
    """Install with ``with Tracer(modules) as tracer:``; the wrapped
    attributes are restored on exit, also when a query raised."""

    modules: dict  # module name -> module object, e.g. {"search": epsap.search}
    spans: list = field(default_factory=list)
    leaves: dict = field(default_factory=dict)  # (trace, parent, layer) -> [calls, busy, tally]
    queries: list = field(default_factory=list)  # (trace, wall seconds)
    _saved: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _trace: int = 0
    _next_id: int = 0

    def __enter__(self):
        for mod_name, attr, layer, leaf, tally in WRAPPED:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, leaf, _TALLY[tally]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def begin_query(self, trace: int) -> None:
        self._trace = trace
        self._stack = [0]

    def end_query(self, wall: float) -> None:
        self.queries.append((self._trace, wall))

    def _wrap(self, fn, layer: str, leaf: bool, tally):
        clock = time.perf_counter

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                busy = clock() - t0
                key = (self._trace, self._stack[-1], layer)
                slot = self.leaves.get(key)
                if slot is None:
                    self.leaves[key] = [1, busy, tally(args, result)]
                else:
                    slot[0] += 1
                    slot[1] += busy
                    slot[2] += tally(args, result)
                return result
            return leaf_wrapper

        def span_wrapper(*args, **kwargs):
            self._next_id += 1
            span = Span(self._trace, self._next_id, self._stack[-1], layer, clock())
            self._stack.append(span.span)
            try:
                result = fn(*args, **kwargs)
                span.tally = tally(args, result)
                return result
            finally:
                self._stack.pop()
                span.end = clock()
                self.spans.append(span)
        return span_wrapper

    def metrics(self) -> dict:
        """Per-layer totals over the queries recorded so far."""
        return layer_metrics(self.spans, self.leaves, self.queries)


def layer_metrics(spans, leaves, queries) -> dict:
    by_id = {(s.trace, s.span): s for s in spans}
    child_time = {}
    for s in spans:
        key = (s.trace, s.parent)
        child_time[key] = child_time.get(key, 0.0) + (s.end - s.start)
    totals = {}  # layer -> [calls, busy, tally]
    for (trace, parent, layer), (calls, busy, tally) in leaves.items():
        child_time[(trace, parent)] = child_time.get((trace, parent), 0.0) + busy
        t = totals.setdefault(layer, [0, 0.0, 0])
        t[0] += calls
        t[1] += busy
        t[2] += tally
    self_time = {}
    for s in spans:
        t = totals.setdefault(s.layer, [0, 0.0, 0])
        t[0] += 1
        t[2] += s.tally
        if not _inside_same_layer(s, by_id):
            t[1] += s.end - s.start
        own = (s.end - s.start) - child_time.get((s.trace, s.span), 0.0)
        self_time[s.layer] = self_time.get(s.layer, 0.0) + own
    cli_self = sum(wall - child_time.get((trace, 0), 0.0) for trace, wall in queries)

    def get(layer, i):
        return totals.get(layer, [0, 0.0, 0])[i]

    def ratio(num, den):
        return num / den if den else 0.0

    cubes = get("geometry.recognize_cube", 0)
    return {
        "geometry.region_add_point.calls": get("geometry.region_add_point", 0),
        "geometry.region_add_point.busy_s": get("geometry.region_add_point", 1),
        "geometry.region_closed_empty.prune_ratio": ratio(
            get("geometry.region_closed_empty", 2), get("geometry.region_closed_empty", 0)),
        "geometry.recognize_ap.calls": get("geometry.recognize_ap", 0),
        "geometry.recognize_ap.busy_s": get("geometry.recognize_ap", 1),
        "geometry.recognize_ap.accept_ratio": ratio(
            get("geometry.recognize_ap", 2), get("geometry.recognize_ap", 0)),
        "search.self_s": self_time.get("search", 0.0),
        "geometry.recognize_cube.calls": cubes,
        "geometry.recognize_cube.busy_s": get("geometry.recognize_cube", 1),
        "geometry.recognize_cube.feasible_ratio": ratio(
            get("geometry.recognize_cube", 2), cubes),
        "geometry.min_enclosing_ball.calls": get("geometry.min_enclosing_ball", 0),
        "geometry.min_enclosing_ball.busy_s": get("geometry.min_enclosing_ball", 1),
        "geometry.min_enclosing_ball.per_cube": ratio(
            get("geometry.min_enclosing_ball", 0), cubes),
        "density.verify_cube_free.calls": get("density.verify_cube_free", 0),
        "density.verify_cube_free.self_s": self_time.get("density.verify_cube_free", 0.0),
        "colorings.build_s": get("colorings.build", 1),
        "colorings.verify_no_mono_ap.busy_s": get("colorings.verify_no_mono_ap", 1),
        "density.build_s": get("density.build", 1),
        "formats.busy_s": get("formats", 1),
        "formats.bytes": get("formats", 2),
        "cli.self_s": cli_self,
    }


def _inside_same_layer(span, by_id) -> bool:
    """Busy time counts only the outermost span of a layer, so a search
    entry point calling another is not counted twice."""
    parent = by_id.get((span.trace, span.parent))
    while parent is not None:
        if parent.layer == span.layer:
            return True
        parent = by_id.get((parent.trace, parent.parent))
    return False
