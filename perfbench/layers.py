"""Which calls into ``repro`` are traced, and the per-layer metrics they give.

:func:`install` wraps the public entry points of each layer (the same set in
the benchmark process and, through ``launch_server.py``, in the server).
:func:`layer_metrics` turns the recorded spans into the ``per_layer`` metrics
of ``BENCHMARK.json``: self times and counts as per-query medians over the
sampled requests, ratios over the whole run.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable

from spans import Span, Tracer, descendants, self_times, union_length

#: Spans that make up the four Algorithm-1 stages inside one query.
STAGE_SPANS = ("search", "alignment", "tupenc", "diversify")
#: Spans that stand for one Algorithm-1 query (outermost one wins).
QUERY_SPANS = ("discovery.run", "pipeline.run")


def _subclasses(cls: type) -> list[type]:
    found, frontier = [cls], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                frontier.append(sub)
    return found


def _wrap_defined(tracer: Tracer, base: type, attr: str, name: Any, **options: Any) -> None:
    """Wrap ``attr`` on ``base`` and every loaded subclass that defines it."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            tracer.wrap(cls, attr, name, **options)


def _under(stack: list, name: str) -> bool:
    return any(getattr(span, "name", None) == name for span in stack)


def _bump(stack: list, key: str) -> None:
    """Add one to ``key`` on the innermost open span (when there is one)."""
    if stack and hasattr(stack[-1], "attrs"):
        attrs = stack[-1].attrs
        attrs[key] = attrs.get(key, 0) + 1


def install(tracer: Tracer) -> None:
    """Install every layer wrapper; import order does not matter."""
    import repro.alignment.holistic as holistic
    import repro.api.facade as facade
    import repro.api.schema as schema
    import repro.cluster.silhouette as silhouette
    import repro.core.pipeline as pipeline
    import repro.embeddings  # noqa: F401 - registers every encoder subclass
    import repro.search  # noqa: F401 - registers every searcher subclass
    import repro.serving.server as server
    from repro.cluster.agglomerative import AgglomerativeClustering
    from repro.core.diversifier import DustDiversifier
    from repro.embeddings.base import ColumnEncoder, TupleEncoder
    from repro.embeddings.contextual import ContextualEncoder
    from repro.ingest.batcher import MicroBatcher
    from repro.search.base import TableUnionSearcher
    from repro.serving.store import IndexStore

    tracer.wrap(facade.Discovery, "run", "discovery.run")
    tracer.wrap(pipeline.DustPipeline, "run", "pipeline.run")
    _wrap_defined(tracer, TableUnionSearcher, "search", "search")
    tracer.wrap(holistic.HolisticColumnAligner, "align", "alignment")
    tracer.wrap(pipeline, "aligned_tuples_from_tables", "alignment")
    _wrap_defined(
        tracer, ColumnEncoder, "encode_column", "colenc",
        attrs=lambda self, header, values: {
            "key": hash((header, tuple(str(value) for value in values)))
        },
    )
    tracer.wrap(AgglomerativeClustering, "fit", "cluster.fit")
    tracer.wrap(holistic, "best_num_clusters", "cluster.silhouette")
    tracer.count(silhouette, "silhouette_score", lambda stack: _bump(stack, "cuts"))
    # encode_many serves both column and tuple encoding; only calls outside
    # a column encoding are the tuple-embedding stage.
    _wrap_defined(
        tracer, TupleEncoder, "encode_many",
        lambda stack: None if _under(stack, "colenc") else "tupenc",
        attrs=lambda self, texts: {"sequences": len(texts)},
    )
    tracer.count(ContextualEncoder, "encode_tokens", lambda stack: _bump(stack, "encode_calls"))
    tracer.wrap(
        DustDiversifier, "select", "diversify",
        attrs=lambda self, request, **_: {"candidates": int(request.candidate_embeddings.shape[0])},
    )
    tracer.wrap(facade.ResultSet, "to_dict", "serialize")
    for module in (schema, facade, server):
        tracer.wrap(module, "dump_result", "serialize")
    tracer.wrap(
        MicroBatcher, "flush", "ingest.flush",
        result_attrs=lambda reports: {"events": sum(report.events for report in reports)},
    )
    tracer.wrap(
        facade.Discovery, "resync", "ingest.resync",
        result_attrs=lambda moved: {"moved": len(moved)},
    )
    tracer.wrap(IndexStore, "load", "store.load")
    tracer.wrap(server.DiscoveryServer, "api_search", "request", request=True)
    tracer.wrap(server.DiscoveryServer, "api_ingest", "ingest.request")


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer metrics from one run's spans (0 for a layer never entered)."""
    spans = list(spans)
    own = self_times(spans)
    per_query: dict[str, list[float]] = {}
    covers: list[float] = []
    traced_latency: list[float] = []
    untraced_latency: list[float] = []
    encodings: list[Span] = []
    for root in spans:
        if root.parent is not None or root.name != "request":
            continue
        queries = root.attrs.get("queries", 1)
        if not root.traced:
            untraced_latency.append(root.duration / queries)
            continue
        traced_latency.append(root.duration / queries)
        below = descendants(spans, root.id)
        units = [span for span in below if span.name == QUERY_SPANS[0]] or [
            span for span in below if span.name == QUERY_SPANS[1]
        ]
        if not units:
            continue
        for unit in units:
            stages = [
                (span.start, span.end)
                for span in descendants(below, unit.id)
                if span.name in STAGE_SPANS
            ]
            covers.append(union_length(stages) / unit.duration if unit.duration else 0.0)
        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        encodings.extend(span for span in below if span.name == "colenc" and "key" in span.attrs)
        names = {span.id: span.name for span in below}
        for span in below:
            if span.name == "search" and names.get(span.parent) != "search":
                add("search.calls", 1)
            if span.name in _SELF_METRICS:
                add(_SELF_METRICS[span.name], own[span.id])
            if span.name == "colenc":
                add("colenc.columns", 1)
            if span.name == "cluster.silhouette":
                add("cluster.cuts", span.attrs.get("cuts", 0))
            if span.name == "tupenc":
                add("tupenc.sequences", span.attrs.get("sequences", 0))
                add("tupenc.encode_calls", span.attrs.get("encode_calls", 0))
            if span.name == "diversify":
                add("diversify.candidates", span.attrs.get("candidates", 0))
        for key in _PER_QUERY_KEYS:
            per_query.setdefault(key, []).append(totals.get(key, 0.0) / len(units))

    metrics = {key: _median(per_query.get(key, [])) for key in _PER_QUERY_KEYS}
    encodings.sort(key=lambda span: span.start)
    seen: set = set()
    repeats = 0
    for span in encodings:
        repeats += span.attrs["key"] in seen
        seen.add(span.attrs["key"])
    metrics["colenc.repeat_frac"] = repeats / len(encodings) if encodings else 0.0
    flushes = [span for span in spans if span.name == "ingest.flush"]
    metrics["ingest.flush_s"] = _median([span.duration for span in flushes])
    metrics["ingest.events_applied"] = float(sum(span.attrs.get("events", 0) for span in flushes))
    metrics["ingest.resyncs"] = float(
        sum(1 for span in spans if span.name == "ingest.resync" and span.attrs.get("moved"))
    )
    loads = [span for span in spans if span.name == "store.load"]
    metrics["store.loads"] = float(len(loads))
    metrics["store.load_s"] = sum(span.duration for span in loads)
    metrics["trace.cover_frac"] = _median(covers)
    metrics["trace.overhead_frac"] = (
        _median(traced_latency) / _median(untraced_latency) - 1.0
        if traced_latency and untraced_latency
        else 0.0
    )
    return metrics


_SELF_METRICS = {
    "search": "search.self_s",
    "alignment": "alignment.self_s",
    "colenc": "colenc.self_s",
    "cluster.fit": "cluster.fit_s",
    "cluster.silhouette": "cluster.silhouette_s",
    "tupenc": "tupenc.self_s",
    "diversify": "diversify.self_s",
    "serialize": "api.serialize_s",
}
_PER_QUERY_KEYS = (
    "search.self_s", "search.calls", "alignment.self_s", "colenc.self_s",
    "colenc.columns", "cluster.fit_s", "cluster.silhouette_s", "cluster.cuts",
    "tupenc.self_s", "tupenc.sequences", "tupenc.encode_calls",
    "diversify.self_s", "diversify.candidates", "api.serialize_s",
)

