"""Tests of the benchmark's own machinery (run with ``PYTHONPATH=src pytest perfbench``)."""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from loadgen import Request, run_open_loop  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402
from stats import highest_supported, percentile, samples_beyond  # noqa: E402


# ------------------------------------------------------------------ spans
def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, None, 1, "parent", 0.0, 10.0),
        Span(2, 1, 1, "a", 1.0, 4.0),
        Span(3, 1, 1, "b", 3.0, 6.0),  # overlaps a: together they cover 1..6
        Span(4, 1, 1, "c", 8.0, 9.0),
        Span(5, 2, 1, "grandchild", 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)


def test_self_time_clips_children_that_outlive_their_parent():
    spans = [Span(1, None, 1, "parent", 0.0, 2.0), Span(2, 1, 1, "thread", 1.0, 5.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_union_length_merges_nested_and_touching_intervals():
    assert union_length([(0, 1), (1, 2), (0.5, 0.7), (3, 4)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_records_parents_samples_requests_and_uninstalls():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    layer = _Layer()
    for _ in range(4):
        with tracer.request("request"):
            assert layer.outer(3) == 7
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    requests = [span for span in tracer.spans if span.name == "request"]
    assert [span.traced for span in requests] == [True, False, True, False]
    by_id = {span.id: span for span in tracer.spans}
    inner = [span for span in tracer.spans if span.name == "inner"]
    # Only the two sampled requests recorded their layer spans.
    assert len(inner) == 2
    for span in inner:
        assert by_id[span.parent].name == "outer"
        assert by_id[span.request].name == "request"


def test_layer_metrics_report_every_name_and_zero_for_unused_layers():
    spans = [
        Span(1, None, 1, "request", 0.0, 1.0, attrs={"queries": 1}),
        Span(2, 1, 1, "discovery.run", 0.0, 0.95),
        Span(3, 2, 1, "search", 0.0, 0.01),
        Span(4, 2, 1, "alignment", 0.01, 0.5),
        Span(5, 4, 1, "colenc", 0.02, 0.3, attrs={"key": 1}),
        Span(6, 2, 1, "tupenc", 0.5, 0.9, attrs={"sequences": 10, "encode_calls": 10}),
        Span(7, 2, 1, "diversify", 0.9, 0.95, attrs={"candidates": 10}),
        Span(8, None, 8, "request", 1.0, 1.9, traced=False, attrs={"queries": 1}),
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["colenc.self_s"] == pytest.approx(0.28)
    assert metrics["alignment.self_s"] == pytest.approx(0.49 - 0.28)
    assert metrics["trace.cover_frac"] == pytest.approx(1.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0 / 0.9 - 1.0)
    assert metrics["store.loads"] == 0.0 and metrics["ingest.flush_s"] == 0.0
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    reported = set(metrics) | {"server.handler_s", "server.outside_s", "server.cpu_per_query_s",
                               "server.rejected", "loadgen.late_p90_s"}
    assert {item["name"] for item in spec["per_layer"]} <= reported


# ------------------------------------------------------------ percentiles
@pytest.mark.parametrize(
    "samples, expected",
    [(9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_highest_percentile_keeps_ten_samples_beyond(samples, expected):
    assert highest_supported(samples) == expected
    if expected is not None:
        assert samples_beyond(samples, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0


# -------------------------------------------------------------- open loop
class _SlowHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        time.sleep(0.2)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_open_loop_times_requests_from_when_they_were_due():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        schedule = [Request(0.05 * n, "search", "/", {}) for n in range(4)]
        due = [item.due for item in schedule]
        run_open_loop(f"http://127.0.0.1:{server.server_address[1]}", schedule, connections=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(item.status == 200 for item in schedule)
    # One connection, 0.2 s per answer, due every 0.05 s: request n waits for
    # the n before it, and that wait is charged to its latency.
    for number, item in enumerate(schedule):
        assert item.due - schedule[0].due == pytest.approx(due[number] - due[0])
        assert item.late == pytest.approx(number * 0.15, abs=0.08)
        assert item.latency == pytest.approx(item.late + 0.2, abs=0.08)


# ---------------------------------------------------------------- digests
def test_inputs_are_a_function_of_the_seed():
    def requests(seed: int) -> list:
        schedule, _ = workloads.serve_schedule(seed, 10.0, workloads.corpus("serve-ingest"))
        return [(r.due, r.kind, json.dumps(r.payload, sort_keys=True)) for r in schedule]

    assert requests(5) == requests(5)
    assert requests(5) != requests(6)
    tall = workloads.corpus("tall-batch")
    plan = [query.name for query in workloads.query_plan("tall-batch", 5, tall)]
    assert plan == [query.name for query in workloads.query_plan("tall-batch", 5, tall)]
    assert sorted(plan) == sorted(query.name for query in tall.query_tables)


def test_apportioned_draws_fix_the_mix_and_draw_only_the_order():
    import random

    first = workloads.apportioned_draws(random.Random(1), 16, 20)
    second = workloads.apportioned_draws(random.Random(2), 16, 20)
    assert len(first) == 20 and sorted(first) == sorted(second) and first != second
    assert set(first) == set(range(16))
    assert first.count(0) >= first.count(1) >= first.count(15)


def test_same_seed_gives_the_same_digest_whatever_the_timings():
    from repro.api import Discovery
    from repro.benchgen import generate_ugen_benchmark

    def run_once() -> tuple[str, dict]:
        benchmark = generate_ugen_benchmark(num_queries=2, seed=5)
        with Discovery().attach(benchmark.lake) as discovery:
            payload = discovery.run(benchmark.query_tables[0]).to_dict()
        return workloads.digest_of([workloads.canonical(payload)]), payload

    first, payload = run_once()
    second, other = run_once()
    assert first == second
    assert payload["timings"] != other["timings"] or payload["timings"] == {}
    assert workloads.check_payload(payload, payload["provenance"]["k"], None) is None
    assert workloads.check_payload(payload, 5, None) is not None


# ---------------------------------------------------------------- compare
def test_compare_verdicts_follow_pairs_spread_and_bound():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [value * 0.8 for value in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, True, 0.1)[0] == "improved"
    slower = [value * 1.2 for value in base]
    assert compare.verdict(base, slower, list(zip(base, slower)), True, 0.1)[0] == "regressed"
    same = list(base)
    assert compare.verdict(base, same, list(zip(base, same)), True, 0.1)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    worse = [value * 1.3 for value in noisy]
    assert compare.verdict(noisy, worse, list(zip(noisy, worse)), True, 0.1)[0] == "unresolved"
