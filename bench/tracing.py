"""Spans, object probes and per-stage memory hooks for the benchmark.

Everything here wraps shiftdim's public functions from outside the
library: a wrapper replaces the function in every ``shiftdim`` module
namespace that holds it (the defining module, modules that imported it by
name, and the package itself), or replaces the method on its class.
Nothing under ``src/`` knows about the benchmark.

Three independent installers exist, one per kind of run:

- :class:`Probe` (every run) counts the sizes of the objects the benchmark
  checks: cover graphs, tower covers, pair systems, maps and windows;
- :class:`Tracer` (traced runs) records one span per call;
- :class:`StageMemory` (memory runs) takes the ``tracemalloc`` peak of
  each top-level pipeline stage.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import weakref

# Public callables traced, as "module:attribute" -> layer metric stem.
# Self time of every span is reported as ``<stem>_s``; spans named
# "pipeline" are summed into ``pipeline.self_s``.  ``SubshiftSpec.language``
# is traced apart, see :meth:`Tracer._language`.
LANGUAGE = "words:SubshiftSpec.language"
SPANS = {
    "words:LanguageTable.build": "words.table",
    "words:LanguageTable.check_factorial": "words.table",
    "words:LanguageTable.write_csv": "words.table",
    "special:sp_estimate": "special.estimate",
    "config:spec_from_config": "config.parse",
    "cover:build_cover_graph": "cover.build",
    "cover:special_match_report": "cover.match",
    "cover:check_intertwining": "cover.intertwining",
    "cover:isolated_orbit_window": "cover.orbit_window",
    "rokhlin:build_rokhlin_cover": "rokhlin.build",
    "rokhlin:verify_rokhlin_cover": "rokhlin.verify",
    "towers:pairs_from_rokhlin": "towers.rokhlin_pairs",
    "towers:attach_shifted_pairs": "towers.rokhlin_pairs",
    "towers:build_phase_pairs": "towers.phase_pairs",
    "towers:verify_tower_pairs": "towers.verify_pairs",
    "systems:FiniteSymbolicSystem.without_entries_into": "systems.entry_free",
    "amenability:build_equivariant_map": "amenability.map",
    "amenability:check_equivariance": "amenability.equivariance",
    "amenability:build_B_partition": "amenability.partition",
    "amenability:project_finite_support": "amenability.projection",
    "simplex:cover_index": "simplex.cover_index",
    "groupoid:build_window": "groupoid.window",
    "groupoid:build_dad_cover": "groupoid.dad_build",
    "groupoid:verify_dad_cover": "groupoid.dad_verify",
    "certificates:Certificate.canonical_json": "certificates.serialize",
    "certificates:Certificate.from_json": "certificates.parse",
    "pipeline:run_lang": "pipeline",
    "pipeline:run_special": "pipeline",
    "pipeline:run_cover": "pipeline",
    "pipeline:run_rokhlin": "pipeline",
    "pipeline:run_towerdim": "pipeline",
    "pipeline:run_amen": "pipeline",
    "pipeline:run_dad": "pipeline",
    "pipeline:recheck_certificate": "pipeline.recheck",
    "cli:main": "cli.verify",
}

# Span stems whose call count is reported as ``<stem>_calls``.
COUNTED = (
    "towers.verify_pairs",
    "amenability.equivariance",
    "amenability.partition",
    "simplex.cover_index",
)

# Top-level pipeline stages for the memory pass, with the layer each is
# reported under.  A re-check is reported under the layer of the
# certificate kind it re-checks.
STAGES = {
    "run_lang": "words",
    "run_special": "special",
    "run_cover": "cover",
    "run_rokhlin": "rokhlin",
    "run_towerdim": "towers",
    "run_amen": "amenability",
    "run_dad": "groupoid",
    "recheck_certificate": None,
}
KIND_LAYER = {
    "language-table": "words",
    "special-report": "special",
    "cover-graph": "cover",
    "rokhlin-cover": "rokhlin",
    "tower-pairs": "towers",
    "equivariance": "amenability",
    "dad-cover": "groupoid",
}
MEMORY_LAYERS = tuple(dict.fromkeys(KIND_LAYER.values()))


def _modules():
    return [m for name, m in sys.modules.items() if name == "shiftdim" or name.startswith("shiftdim.")]


def patch(target: str, make_wrapper) -> None:
    """Replace ``module:attr`` (attr may be ``Class.method``) by
    ``make_wrapper(current)`` everywhere shiftdim refers to it."""
    modname, attr = target.split(":")
    module = sys.modules[f"shiftdim.{modname}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    current = getattr(module, attr)
    wrapped = make_wrapper(current)
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, name, wrapped)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the
    index of the enclosing span or -1.  Spans are kept in memory and
    reduced when the pass ends."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = {"words.language_calls": 0, "words.factors_built": 0}
        self._seen_lengths: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> None:
        patch(LANGUAGE, self._language)
        for target, name in SPANS.items():
            patch(target, functools.partial(self._wrap, name=name))

    def take(self) -> tuple[list, dict[str, int]]:
        """Hand over the spans and counts recorded so far, and start
        afresh."""
        spans, self.spans = self.spans, []
        counts = dict(self.counts)
        self.counts = dict.fromkeys(counts, 0)
        self._stack.clear()
        return spans, counts

    def _wrap(self, fn, name: str):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _language(self, fn):
        """Span the first call for each (presentation, length), which
        computes the factors; count every call.  The later calls hit the
        presentation's cache and are not spanned: there are up to 1.3
        million of them per pass, and a span on each added about half to
        the traced time of ``tm-trib-front``."""
        traced = self._wrap(fn, "words.language")

        @functools.wraps(fn)
        def language(spec, n):
            self.counts["words.language_calls"] += 1
            seen = self._seen_lengths.get(spec)
            if seen is None:
                seen = self._seen_lengths[spec] = set()
            elif n in seen:
                return fn(spec, n)
            seen.add(n)
            result = traced(spec, n)
            self.counts["words.factors_built"] += len(result)
            return result

        return language


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name: each span's duration
    minus the durations of its direct children (children of one span never
    overlap, because calls nest)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_ns):
        out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
    return out


def root_time(spans) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0) / 1e9


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def wrapper_costs(calls: int = 100_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a span adds to one call, and seconds the counting adds to one
    cached ``SubshiftSpec.language`` call.  Each wrapper of a fresh
    :class:`Tracer` is timed around an empty function against the bare
    function, taking the fastest of ``repeats`` loops of ``calls`` calls."""
    tracer = Tracer()

    class Presentation:  # the tracer keeps a weak map keyed by presentation
        pass

    def empty(spec, n):
        return ()

    spec = Presentation()
    spanned = tracer._wrap(empty, "calibration")
    counted = tracer._language(empty)
    counted(spec, 0)  # spans the first call for a length; later ones are only counted

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn(spec, 0)
            best = min(best, time.perf_counter() - start)
        return best / calls

    bare = per_call(empty)
    return per_call(spanned) - bare, per_call(counted) - bare


def layer_metrics(spans, counts: dict[str, int], pass_seconds: float, costs) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Every span stem is present
    (0 when the pass never called it), so the self times and
    ``trace.unspanned_s`` add up to ``pass_seconds``.  ``costs`` is what
    :func:`wrapper_costs` measured; ``tracing_overhead_s`` is the pass's
    spans and language calls priced at it."""
    out: dict[str, float] = {"words.language_s": 0.0}
    for stem in SPANS.values():
        out["pipeline.self_s" if stem == "pipeline" else f"{stem}_s"] = 0.0
    for stem, seconds in self_times(spans).items():
        out["pipeline.self_s" if stem == "pipeline" else f"{stem}_s"] += seconds
    calls = call_counts(spans)
    for stem in COUNTED:
        out[f"{stem}_calls"] = calls.get(stem, 0)
    out.update(counts)
    out["trace.run_s"] = pass_seconds
    out["trace.unspanned_s"] = pass_seconds - root_time(spans)
    span_s, count_s = costs
    out["tracing_overhead_s"] = len(spans) * span_s + counts["words.language_calls"] * count_s
    return out


def _graph_counts(graph) -> dict[str, int]:
    return {
        "cover.states": graph.num_states,
        "cover.edges": sum(len(s) for s in graph.succ),
        "cover.stored_words": len(graph.stored),
    }


def _map_counts(emap) -> dict[str, int]:
    return {
        "amenability.map_points": len(emap.assignment),
        "amenability.max_den_bits": max(
            (w.denominator.bit_length() for point in emap.assignment for _, w in point.entries),
            default=0,
        ),
    }


# Size counters, each summed over the objects met in one pass, except the
# largest denominator (in bits) of a map weight, which is a maximum.
COUNTERS = (
    "cover.states",
    "cover.edges",
    "cover.stored_words",
    "rokhlin.towers",
    "towers.pairs",
    "amenability.map_points",
    "amenability.max_den_bits",
    "groupoid.window_elements",
)
MAX_COUNTERS = ("amenability.max_den_bits",)


class Probe:
    """Size counters read at the call boundaries where every workload meets
    the objects: cover graphs built, tower covers and pair systems
    verified, maps checked and windows built.

    The counters are integers worked out when the call returns, so the
    probe keeps no object alive longer than the program does.  ``spent``
    is the time the counting took; :class:`workloads.Pass` leaves it out of
    the operation times."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.spent = 0.0

    def install(self) -> None:
        patch("cover:build_cover_graph", self._counting(_graph_counts))
        patch("groupoid:build_window", self._counting(lambda w: {"groupoid.window_elements": len(w)}))
        patch("rokhlin:verify_rokhlin_cover", self._counting(lambda c: {"rokhlin.towers": len(c.towers)}, 1))
        patch("towers:verify_tower_pairs", self._counting(lambda t: {"towers.pairs": len(t.pairs)}, 1))
        patch("amenability:check_equivariance", self._counting(_map_counts, 1))

    def _counting(self, measure, argument=None):
        """Wrap a function so that ``measure`` reads its result, or its
        positional argument ``argument`` (the object verified), after each
        call."""

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                start = time.perf_counter()
                for name, value in measure(result if argument is None else args[argument]).items():
                    old = self.counts.get(name, 0)
                    self.counts[name] = max(old, value) if name in MAX_COUNTERS else old + value
                self.spent += time.perf_counter() - start
                return result

            return counted

        return make

    def drain(self) -> dict[str, int]:
        """The counters since the last drain, with every counter present."""
        counts = {name: self.counts.get(name, 0) for name in COUNTERS}
        self.counts = {}
        return counts


class StageMemory:
    """``tracemalloc`` peak of each top-level stage, above the memory
    already traced when the stage starts; ``reset_peak`` separates stages.
    Only the largest peak per layer is kept."""

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self._depth = 0

    def install(self) -> None:
        for name, layer in STAGES.items():
            patch(f"pipeline:{name}", functools.partial(self._wrap, layer=layer))

    def _wrap(self, fn, layer):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            stage_layer = layer or KIND_LAYER.get(args[0].kind, "pipeline")
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[stage_layer] = max(peak, self.peak_mb.get(stage_layer, 0.0))

        return measured
