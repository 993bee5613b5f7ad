"""Spans around the calls into cmgiant's public functions.

The tracer rebinds every public module-level function of the package in
every cmgiant module namespace that holds it, so calls made inside the
library (for example expcli's runners calling `component_decomposition`)
are caught as well as calls made by the benchmark. Each call becomes a span
(name, start, end, parent) kept in memory; the benchmark writes them out
when the run ends. Nothing under src/ is changed: the wrappers live only
while the tracer is installed.

A span's self time is its duration minus the durations of its direct
children. Calls are synchronous and single-threaded, so children never
overlap and the self times of a tree sum to its root's duration.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

PACKAGE = "cmgiant"
BENCH = "bench"  # span-name prefix of the benchmark's own root spans


def _namespaces():
    """The package and every loaded submodule of it."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def rebound(original, replacement):
    """Replace one function object in every cmgiant namespace that holds it."""
    saved = []
    for mod in _namespaces():
        for name, obj in list(vars(mod).items()):
            if obj is original:
                saved.append((mod, name))
                setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod, name in saved:
            setattr(mod, name, original)


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Work counters, keyed by span name. Each gets the tracer, a thunk returning
# the call's bound arguments, the result and the call's duration.
def _count_degrees(t, call, result, seconds):
    t.add("degree_model.vertices", call()["n"])


def _count_pairing(t, call, result, seconds):
    t.add("graph_build.half_edges", result.num_half_edges)


def _count_decompose(t, call, result, seconds):
    t.add("components.vertices", call()["g"].n)


def _count_distances(t, call, result, seconds):
    t.add("distances.pairs", call()["pairs"])


def _count_canonical_code(t, call, result, seconds):
    t.codes.add(result)


def _count_bp_census(t, call, result, seconds):
    t.add("neighborhoods.bp_samples", call()["samples"])


def _count_zeta(t, call, result, seconds):
    a = call()
    if a["mode"] == "monte_carlo":
        t.add("local_limit.trees", a["samples"])


def _count_cond(t, call, result, seconds):
    t.add("local_limit.trees", call()["samples"])


def _count_tree(t, call, result, seconds):
    t.add("local_limit.trees", 1)


def _count_coupling(t, call, result, seconds):
    t.add("coupling.steps", len(result.steps))
    t.add("coupling.half_edge_reuses", result.half_edge_reuses)


def _count_experiment(t, call, result, seconds):
    cfg = call()["cfg"]
    t.add(f"expcli.{cfg.experiment}_s", seconds)
    t.add("expcli.jobs", len(cfg.sizes) * len(cfg.seeds))


COUNTERS = {
    "degree_model.sample_iid_degrees": _count_degrees,
    "graph_build.pair_half_edges": _count_pairing,
    "components.component_decomposition": _count_decompose,
    "distances.sample_distances": _count_distances,
    "neighborhoods.canonical_code": _count_canonical_code,
    "neighborhoods.bp_ball_distribution": _count_bp_census,
    "local_limit.zeta_geq_k": _count_zeta,
    "local_limit.estimate_cond_limit": _count_cond,
    "local_limit.simulate_unimodular_bp": _count_tree,
    "coupling.coupled_exploration": _count_coupling,
    "expcli.run_experiment": _count_experiment,
}


class Tracer:
    """Records spans and work counts while installed (a context manager)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.codes: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def reset(self) -> list[list]:
        """Start a fresh set of spans and counts; return the old spans."""
        spans = self.spans
        self.spans = []
        self.counts = defaultdict(float)
        self.codes = set()
        return spans

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self, lambda: _arguments(sig, args, kwargs), result, span[2] - span[1])
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for mod in _namespaces():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(PACKAGE + ".")
                ):
                    if obj not in wrappers:
                        owner = obj.__module__.rsplit(".", 1)[1]
                        wrappers[obj] = self._wrap(f"{owner}.{obj.__name__}", obj)
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_stats(spans: list[list]) -> dict[str, Stat]:
    """Calls, inclusive time and self time per span name."""
    stats: dict[str, Stat] = defaultdict(Stat)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        s = stats[name]
        s.calls += 1
        s.total += end - start
        s.own += own
    return stats


# The module layers reported one line each, in call-graph order.
LAYERS = (
    "degree_model",
    "graph_build",
    "components",
    "traversal",
    "distances",
    "neighborhoods",
    "local_limit",
    "coupling",
    "expcli",
)

EXPERIMENTS = ("giant", "truncation", "local_conv", "almost_local", "distances", "coupling")

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def set_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced set, whose wall time is `wall`."""
    stats = span_stats(tracer.spans)
    c = tracer.counts

    def total(*names):
        return sum(stats[n].total for n in names if n in stats)

    def own(*names):
        return sum(stats[n].own for n in names if n in stats)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    pair_s = total("graph_build.pair_half_edges")
    decompose_s = total("components.component_decomposition")
    explore_s = total("coupling.coupled_exploration", "coupling.coupled_pair_exploration")
    code_calls = calls("neighborhoods.canonical_code")
    library_self = sum(s.own for n, s in stats.items() if not n.startswith(BENCH + "."))
    layer_self = {
        layer: sum(s.own for n, s in stats.items() if n.startswith(layer + "."))
        for layer in LAYERS
    }
    m = {
        "degree_model.sample_s": total("degree_model.sample_iid_degrees"),
        "degree_model.vertices": c["degree_model.vertices"],
        "graph_build.pair_s": pair_s,
        "graph_build.half_edges": c["graph_build.half_edges"],
        "graph_build.pair_ns_per_half_edge": 1e9 * _ratio(pair_s, c["graph_build.half_edges"]),
        "graph_build.truncate_s": total("graph_build.truncate_explode"),
        "graph_build.coupled_pairing_self_s": own("graph_build.coupled_pairing"),
        "components.decompose_s": decompose_s,
        "components.decompose_calls": calls("components.component_decomposition"),
        "components.decompose_ns_per_vertex": 1e9 * _ratio(decompose_s, c["components.vertices"]),
        "components.boundary_pair_self_s": own("components.boundary_pair_fraction"),
        "traversal.boundary_counts_s": total("traversal.boundary_counts"),
        "traversal.boundary_counts_calls": calls("traversal.boundary_counts"),
        "traversal.pair_distance_s": total("traversal.pair_distance"),
        "traversal.pair_distance_calls": calls("traversal.pair_distance"),
        "distances.sample_self_s": own("distances.sample_distances"),
        "distances.pairs": c["distances.pairs"],
        "neighborhoods.canonical_code_s": total("neighborhoods.canonical_code"),
        "neighborhoods.canonical_code_calls": code_calls,
        "neighborhoods.extract_ball_s": total("neighborhoods.extract_ball"),
        "neighborhoods.extract_ball_calls": calls("neighborhoods.extract_ball"),
        "neighborhoods.bp_ball_s": total("neighborhoods.bp_ball_distribution"),
        "neighborhoods.bp_samples": c["neighborhoods.bp_samples"],
        "neighborhoods.census_self_s": own(
            "neighborhoods.empirical_ball_distribution",
            "neighborhoods.restricted_ball_distribution",
            "neighborhoods.canonical_ball",
        ),
        "neighborhoods.distinct_codes": len(tracer.codes),
        "neighborhoods.code_yield": _ratio(len(tracer.codes), code_calls),
        "local_limit.sampler_s": total(
            "local_limit.zeta_geq_k",
            "local_limit.estimate_cond_limit",
            "local_limit.simulate_unimodular_bp",
            "local_limit.simulate_offspring_generations",
        ),
        "local_limit.trees": c["local_limit.trees"],
        "local_limit.spec_s": total("local_limit.build_offspring_spec", "local_limit.theoretical_giant"),
        "local_limit.spec_calls": calls("local_limit.build_offspring_spec", "local_limit.theoretical_giant"),
        "coupling.explore_s": explore_s,
        "coupling.steps": c["coupling.steps"],
        "coupling.half_edge_reuses": c["coupling.half_edge_reuses"],
        "coupling.us_per_step": 1e6 * _ratio(explore_s, c["coupling.steps"]),
        **{f"expcli.{e}_s": c[f"expcli.{e}_s"] for e in EXPERIMENTS},
        "expcli.self_s": layer_self["expcli"],
        "expcli.jobs": c["expcli.jobs"],
        "trace_library_frac": _ratio(library_self, wall),
    }
    m.update({f"_layer.{layer}": own for layer, own in layer_self.items()})
    return m


def median_metrics(per_set: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(m[name] for m in per_set) for name in per_set[0]}


def layer_table(metrics: dict[str, float], wall: float, names) -> list[str]:
    """One scoreboard-style line per module layer, showing the named metrics."""
    lines = []
    for layer in LAYERS:
        own = metrics[f"_layer.{layer}"]
        detail = " ".join(
            f"{name.split('.', 1)[1]}={metrics[name]:.4g}"
            for name in names
            if name.startswith(layer + ".")
        )
        lines.append(
            f"layer {layer}: {own:.4f} s self ({100 * _ratio(own, wall):.1f}% of traced wall) - {detail}"
        )
    lines.append(
        f"layer tracer: library self {100 * metrics['trace_library_frac']:.1f}% of traced wall"
        f" - overhead_frac={metrics['trace_overhead_frac']:.4g}"
    )
    return lines


def write_spans(path: str, spans_per_set: list[list[list]]) -> None:
    """One JSON line per span: set index, name, start, end, parent index."""
    with open(path, "w") as fh:
        for i, spans in enumerate(spans_per_set):
            for name, start, end, parent in spans:
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")
