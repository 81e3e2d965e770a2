"""The three workloads: inputs made from the seed, the run, and its checks.

* ``ugen-hot`` — one in-process caller in a closed loop running
  ``Discovery.run`` over a ugen lake with ~10 rows per table; queries are
  drawn Zipf-like, so the same lake tables come back again and again.
* ``tall-batch`` — offline ``Discovery.run_many`` over distinct queries of a
  ugen lake with 60-row tables; every query is issued once.
* ``serve-ingest`` — ``python -m repro serve`` as a child process, driven by
  an open-loop schedule of searches with one flushed ingest write per four
  searches, replacing or adding tables the searched queries retrieve.

NOTES.md records why each exists and what each layer metric should move.
Every workload reports the same end-to-end metric names; how each is
measured on each workload is described there too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from loadgen import Request, ServerProcess, run_open_loop, vm_hwm_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The lakes are a fixed corpus; ``--seed`` drives the requests made of it
#: (which queries, in what order and popularity, when, and what the writes
#: contain).  Lakes generated from different seeds differ so much in cost
#: (two seeds gave a median query of 0.44 and 0.55 s on every repeat) that
#: a per-seed lake would make the benchmark measure the seed.
CORPUS_SEED = 7
#: Queries that make up each lake's query pool (a ugen lake holds 20 tables
#: per query: 10 unionable, 10 distractors).
HOT_POOL = 16
TALL_POOL = 30
TALL_ROWS = 60
#: Queries per ``run_many`` call on ``tall-batch``.
TALL_BATCH = 2
#: Zipf exponent of the query popularity on ``ugen-hot`` and ``serve-ingest``:
#: mild, so a run's mix spans most topics of the pool and its median does not
#: hinge on the cost of the two or three hottest.
ZIPF_S = 0.5
#: Open-loop search rate of ``serve-ingest`` and writes per search.  A search
#: takes 0.35-0.7 s, so at this rate it normally has the server to itself and
#: the median measures the deployed path rather than how searches happened to
#: overlap (at 1.2/s a seed whose hot queries were heavy queued up).
SERVE_RATE = 1.0
WRITES_PER_SEARCH = 0.25
WRITE_LEAD_SECONDS = 0.05
#: Flushed writes applied in process after the query window.
IN_PROCESS_WRITES = 40
#: Latency limit a query must meet to count towards ``slo_frac``.
SLO_SECONDS = {"ugen-hot": 1.0, "tall-batch": 6.0, "serve-ingest": 2.5}
#: Setups per run; the reported ``setup_s`` is their median.
SETUPS = 3
#: Leading results whose canonical payloads make up a run's digest; they
#: are computed in every run whatever its length.
DIGEST_RESULTS = {"ugen-hot": 4, "tall-batch": TALL_BATCH, "serve-ingest": 3}


@dataclass
class Outcome:
    """What one run measured and whether every answer checked out."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    latencies: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------- inputs
def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def apportioned_draws(rng: random.Random, items: int, count: int) -> list[int]:
    """``count`` indices whose counts follow the Zipf popularity exactly.

    Index ``i`` has rank ``i``; counts are the weights' shares of ``count``
    rounded by largest remainder, and only their order is drawn.  Every seed
    then asks for the same mix: drawn at random, the mix of a run's few
    dozen queries moved the median more than the program does.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(items)]
    quotas = [count * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(items), key=lambda index: counts[index] - quotas[index])
    for index in by_remainder[:count - sum(counts)]:
        counts[index] += 1
    draws = [index for index, times in enumerate(counts) for _ in range(times)]
    rng.shuffle(draws)
    return draws


def open_loop_offsets(rng: random.Random, count: int, seconds: float) -> list[float]:
    """``count`` arrival offsets in ``[0, seconds)``: even spacing, jittered.

    Each arrival is moved by up to 5% of the gap: a fixed count and no
    Poisson bursts keep the offered load the same for every seed, and one
    arrival's work has normally ended when the next is due.
    """
    gap = seconds / count
    return [(number + 0.5 + rng.uniform(-0.05, 0.05)) * gap for number in range(count)]


def corpus(workload: str):
    """The workload's ugen lake and query pool, the same for every seed."""
    from repro.benchgen import generate_ugen_benchmark

    if workload == "tall-batch":
        return generate_ugen_benchmark(num_queries=TALL_POOL, rows_per_table=TALL_ROWS, seed=CORPUS_SEED)
    return generate_ugen_benchmark(num_queries=HOT_POOL, seed=CORPUS_SEED)


def write_events(benchmark, rng: random.Random, hot_queries: Sequence[int], count: int) -> list:
    """Writes on tables the hot queries retrieve: three replaces, then an add."""
    from repro.datalake.table import Table
    from repro.ingest.events import TableEvent

    targets: list[str] = []
    for index in hot_queries:
        for name in benchmark.ground_truth[benchmark.query_tables[index].name]:
            if name not in targets:
                targets.append(name)
    events = []
    for number in range(count):
        source = benchmark.lake.get(targets[number % len(targets)])
        rows = [list(row) for row in source.rows]
        rng.shuffle(rows)
        if len(rows) > 3:
            rows.pop()
        column = rng.randrange(len(source.columns))
        rows[0][column] = rows[-1][column]
        adding = number % 4 == 3
        name = f"{source.name}__w{number}" if adding else source.name
        table = Table(name=name, columns=list(source.columns), rows=[tuple(row) for row in rows])
        events.append(TableEvent(op="add" if adding else "replace", name=name, table=table))
    return events


def hottest(draws: Sequence[int], count: int) -> list[int]:
    ranked = sorted(set(draws), key=lambda index: (-draws.count(index), index))
    return ranked[:count]


# ---------------------------------------------------------------- checks
def canonical(payload: dict) -> str:
    from repro.api.schema import canonical_result_payload

    return json.dumps(canonical_result_payload(payload), sort_keys=True)


def digest_of(canonicals: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(canonicals).encode("utf-8")).hexdigest()


def check_payload(payload: dict, k: int, lake_fingerprint: str | None) -> str | None:
    """Why ``payload`` is not a valid answer, or ``None`` when it is."""
    from repro.api.schema import validate_result_payload
    from repro.utils.errors import ReproError

    try:
        validate_result_payload(payload)
    except ReproError as exc:
        return f"invalid payload: {exc}"
    selections = [tuple(item) for item in payload["selections"]]
    expected = min(k, payload["num_candidate_tuples"])
    if len(selections) != expected:
        return f"{len(selections)} selections, expected {expected}"
    if len(set(selections)) != len(selections):
        return "duplicate selections"
    if lake_fingerprint is not None and payload["provenance"]["lake_fingerprint"] != lake_fingerprint:
        return "answer computed over another lake version"
    return None


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        return vm_hwm_mb(handle.read())


def serialize(result) -> tuple[dict, str]:
    """What a caller does with an answer: the wire payload and its JSON text."""
    import repro.api.schema as schema

    payload = result.to_dict()
    return payload, schema.dump_result(payload)


# ----------------------------------------------------------------- setup
def setup_in_process(workload: str, benchmark, first_query) -> tuple[Any, float]:
    """Build a deployment on the lake and answer its first query."""
    from repro.api import Discovery

    started = time.perf_counter()
    discovery = Discovery().attach(benchmark.lake)
    if workload == "tall-batch":
        results = discovery.run_many([first_query])
    else:
        results = [discovery.run(first_query)]
    for result in results:
        serialize(result)
    return discovery, time.perf_counter() - started


def probe_setup(workload: str, seed: int) -> float:
    """One set-up in this (fresh) process; used by the benchmark's probes."""
    benchmark = corpus(workload)
    return setup_in_process(workload, benchmark, query_plan(workload, seed, benchmark)[0])[1]


def setup_probes(workload: str, seed: int, count: int, env: dict[str, str]) -> list[float]:
    """Set-up times measured in ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
        ).stdout
        samples.append(float(json.loads(output.strip().splitlines()[-1])["setup_s"]))
    return samples


def query_plan(workload: str, seed: int, benchmark) -> list:
    """The queries in the order a run issues them."""
    queries = benchmark.query_tables
    if workload == "tall-batch":
        order = list(range(len(queries)))
        rng_for(workload, seed, "order").shuffle(order)
        return [queries[index] for index in order]
    draws = apportioned_draws(rng_for(workload, seed, "queries"), len(queries), 4096)
    return [queries[index] for index in draws]


# ------------------------------------------------------------ in-process
def in_process_writes(outcome: Outcome, discovery, events, tracer) -> list[float]:
    """Apply ``events`` one flushed write at a time; returns their latencies."""
    from contextlib import nullcontext

    controller = discovery.ingest()
    latencies = []
    for event in events:
        outcome.attempted += 1
        with tracer.span("ingest.request") if tracer is not None else nullcontext():
            started = time.perf_counter()
            controller.submit_many([event])
            reports = controller.flush()
            latencies.append(time.perf_counter() - started)
        applied = sum(report["events"] for report in reports)
        live = discovery.lake.get(event.name).content_fingerprint()
        if applied != 1 or live != event.table.content_fingerprint():
            outcome.fail(f"write to {event.name} not applied ({applied} events)")
    return latencies


def run_in_process(workload: str, seed: int, seconds: float, tracer, probe_env: dict[str, str]) -> Outcome:
    from contextlib import nullcontext

    from repro.api import Discovery

    outcome = Outcome()
    setups = setup_probes(workload, seed, SETUPS - 1, probe_env)
    benchmark = corpus(workload)
    plan = query_plan(workload, seed, benchmark)
    if tracer is not None:
        import layers

        layers.install(tracer)
    discovery, setup = setup_in_process(workload, benchmark, plan[0])
    setups.append(setup)
    if workload == "tall-batch":
        plan = plan[1:]  # each query is issued once; the set-up used the first
    k = discovery.config.pipeline["k"]
    lake_fp = benchmark.lake.fingerprint()
    batch = TALL_BATCH if workload == "tall-batch" else 1
    limit = SLO_SECONDS[workload]
    first_answer: dict[str, str] = {}
    leading: list[str] = []
    tuples = asked = within = 0
    busy = 0.0
    position = 0
    deadline = time.perf_counter() + seconds
    while position + batch <= len(plan) and (
        time.perf_counter() < deadline
        or (len(leading) < DIGEST_RESULTS[workload] and not outcome.failed)
    ):
        queries = plan[position:position + batch]
        position += batch
        asked += len(queries)
        outcome.attempted += len(queries)
        scope = tracer.request("request", queries=len(queries)) if tracer is not None else nullcontext()
        started = time.perf_counter()
        answers = []
        try:
            with scope:
                if workload == "tall-batch":
                    results = discovery.run_many(queries)
                else:
                    results = [discovery.run(queries[0])]
                for result in results:
                    before = time.perf_counter()
                    payload = serialize(result)[0]
                    # A batch caller sees one answer per query: its own
                    # pipeline time plus its serialization.
                    answers.append((payload, result.timings["total"] + time.perf_counter() - before))
        except Exception as exc:  # the run goes on; the failure is counted
            outcome.fail(f"{type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        for query, (payload, latency) in zip(queries, answers):
            latency = latency if workload == "tall-batch" else elapsed
            outcome.latencies.append(latency)
            problem = check_payload(payload, k, lake_fp)
            text = canonical(payload)
            if problem is None and first_answer.setdefault(query.name, text) != text:
                problem = "a repeated query was answered differently"
            if problem is not None:
                outcome.fail(f"{query.name}: {problem}")
                continue
            if len(leading) < DIGEST_RESULTS[workload]:
                leading.append(text)
            tuples += payload["num_candidate_tuples"]
            within += latency <= limit
    outcome.digest = digest_of(leading)

    hot = [benchmark.query_tables.index(query) for query in plan[:position]]
    writes = write_events(benchmark, rng_for(workload, seed, "writes"), hottest(hot, 3), IN_PROCESS_WRITES)
    write_latencies = in_process_writes(outcome, discovery, writes, tracer)
    if workload == "ugen-hot":
        # After the writes, the re-synced deployment must answer exactly like
        # one built from scratch on the written lake.
        outcome.attempted += 1
        probe = plan[0]
        warm = canonical(serialize(discovery.run(probe))[0])
        with Discovery().attach(discovery.lake) as fresh:
            cold = canonical(serialize(fresh.run(probe))[0])
        if warm != cold:
            outcome.fail(f"{probe.name}: answer after writes differs from a fresh build")
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(outcome.latencies) if outcome.latencies else 0.0,
        "tuples_per_s": tuples / busy if busy else 0.0,
        "slo_frac": within / asked if asked else 0.0,
        "ingest_p50_s": statistics.median(write_latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        import layers

        tracer.uninstall()
        outcome.layers = layers.layer_metrics(tracer.spans)
    return outcome


# -------------------------------------------------------------- serving
def server_command(event_log: str, spans: str | None) -> list[str]:
    """The server over ``corpus("serve-ingest")``: the CLI generates the same lake."""
    serve = [
        "serve", "--benchmark", "ugen", "--num-queries", str(HOT_POOL),
        "--seed", str(CORPUS_SEED), "--port", "0", "--event-log", event_log,
    ]
    if spans is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "launch_server.py"), "--spans", spans, "--", *serve]


def serve_schedule(seed: int, seconds: float, benchmark) -> tuple[list[Request], list[int]]:
    """Searches at SERVE_RATE, plus one write per 1/WRITES_PER_SEARCH searches.

    Each write is due shortly before a search, when the search before it
    has normally finished: its latency then measures the write path rather
    than the wait for in-flight searches, and the search right behind it
    pays for whatever the write invalidated.
    """
    searches = max(DIGEST_RESULTS["serve-ingest"], round(SERVE_RATE * seconds))
    draws = apportioned_draws(rng_for("serve-ingest", seed, "queries"), len(benchmark.query_tables), searches)
    offsets = open_loop_offsets(rng_for("serve-ingest", seed, "arrivals"), searches, seconds)
    schedule = [
        Request(due, "search", "/v1/search", {"query_index": index})
        for due, index in zip(offsets, draws)
    ]
    slots = range(1, searches, round(1 / WRITES_PER_SEARCH))
    events = write_events(benchmark, rng_for("serve-ingest", seed, "writes"), hottest(draws, 3), len(slots))
    schedule += [
        Request(offsets[slot] - WRITE_LEAD_SECONDS, "ingest", "/v1/ingest",
                {"events": [event.to_payload()], "flush": True})
        for slot, event in zip(slots, events)
    ]
    return schedule, draws


def start_server(scratch: Path, name: str, env: dict[str, str], spans: str | None = None) -> ServerProcess:
    server = ServerProcess(
        server_command(str(scratch / f"{name}.events.jsonl"), spans),
        env=env, cwd=str(ROOT), log_path=str(scratch / f"{name}.log"),
    )
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def facade_answers(benchmark, writes: Sequence[Request], payloads, leading: Sequence[int]):
    """The in-process facade's answers to what the server was asked.

    Replays the writes in the order they were sent (one at a time) on a
    mirror of the lake; at every lake version it answers each query the
    server answered over that version (found by ``lake_fingerprint``), and
    the ``leading`` queries at version 0.  Returns ``k``, the version of
    each fingerprint and ``{(version, query index): canonical payload}``.
    """
    from repro.api import Discovery
    from repro.ingest.events import event_from_payload

    answered = [(index, payload) for index, payload in payloads if payload is not None]
    versions: dict[str, int] = {}
    expected: dict[tuple[int, int], str] = {}
    with Discovery().attach(benchmark.lake) as mirror:
        controller = mirror.ingest()
        for version in range(len(writes) + 1):
            if version:
                controller.submit_many(
                    [event_from_payload(item) for item in writes[version - 1].payload["events"]]
                )
                controller.flush()
            fingerprint = mirror.lake.fingerprint()
            versions[fingerprint] = version
            wanted = {
                index for index, payload in answered
                if payload["provenance"]["lake_fingerprint"] == fingerprint
            }
            if version == 0:
                wanted |= set(leading)
            for index in sorted(wanted):
                expected[(version, index)] = canonical(serialize(mirror.run(benchmark.query_tables[index]))[0])
        k = mirror.config.pipeline["k"]
    return k, versions, expected


def first_answer(server: ServerProcess, query_index: int) -> float:
    """Seconds from spawning ``server`` until its first search was answered."""
    from loadgen import post

    status, _ = post(server.url, "/v1/search", {"query_index": query_index})
    if status != 200:
        raise RuntimeError(f"first search answered {status}")
    return time.perf_counter() - server.started


def run_serve(seed: int, seconds: float, trace: bool, scratch: Path, env: dict[str, str]) -> Outcome:
    outcome = Outcome()
    benchmark = corpus("serve-ingest")
    schedule, draws = serve_schedule(seed, seconds, benchmark)
    setups = []
    for probe in range(SETUPS - 1):
        server = start_server(scratch, f"probe{probe}", env)
        try:
            setups.append(first_answer(server, draws[0]))
        finally:
            server.stop()
    spans_path = str(scratch / "server.spans.json") if trace else None
    server = start_server(scratch, "server", env, spans_path)
    try:
        setups.append(first_answer(server, draws[0]))
        cpu_before = server.cpu_seconds()
        run_open_loop(server.url, schedule, connections=os.cpu_count() or 1)
        cpu_used = server.cpu_seconds() - cpu_before
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        outcome.fail(f"server exited with code {code}")

    searches = [item for item in schedule if item.kind == "search"]
    writes = sorted((item for item in schedule if item.kind == "ingest"), key=lambda item: item.sent)
    outcome.attempted += len(searches) + len(writes)
    payloads: list[tuple[int, dict | None]] = []
    rejected = 0
    for item in searches:
        payload = None
        if item.status == 200:
            payload = json.loads(item.body)
        elif item.status == 503:
            rejected += 1
        payloads.append((item.payload["query_index"], payload))
        outcome.latencies.append(item.latency)
    for item in writes:
        answer = json.loads(item.body) if item.status == 200 else {}
        if answer.get("events_applied") != 1:
            outcome.fail(f"write answered {item.status or item.error}: {answer}")

    k, versions, expected = facade_answers(benchmark, writes, payloads, draws[:DIGEST_RESULTS["serve-ingest"]])
    outcome.digest = digest_of([expected[(0, index)] for index in draws[:DIGEST_RESULTS["serve-ingest"]]])

    limit = SLO_SECONDS["serve-ingest"]
    tuples = within = 0
    for (index, payload), item in zip(payloads, searches):
        if payload is None:
            outcome.fail(f"search answered {item.status or item.error}")
            continue
        problem = check_payload(payload, k, None)
        version = versions.get(payload["provenance"]["lake_fingerprint"])
        if problem is None and version is None:
            problem = "answer over a lake version no write sequence produced"
        if problem is None and canonical(payload) != expected[(version, index)]:
            problem = f"wire answer differs from the facade at lake version {version}"
        if problem is not None:
            outcome.fail(f"query {index}: {problem}")
            continue
        tuples += payload["num_candidate_tuples"]
        within += item.latency <= limit

    served = [item.latency for item, (_, payload) in zip(searches, payloads) if payload is not None]
    span = max(item.done for item in schedule) - min(item.due for item in schedule)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(served) if served else 0.0,
        "tuples_per_s": tuples / span,
        "slo_frac": within / len(searches),
        "ingest_p50_s": statistics.median(item.latency for item in writes),
        "peak_rss_mb": rss,
    }
    if trace:
        import layers
        from spans import load_spans
        from stats import percentile

        outcome.layers = layers.layer_metrics(load_spans(spans_path))
        handler = [
            event["latency_seconds"]
            for event in map(json.loads, (scratch / "server.events.jsonl").read_text().splitlines())
            if event.get("kind") == "search" and event.get("status") == "ok"
        ][1:]  # the first answered search belongs to the set-up
        sent = [item.done - item.sent for item in searches if item.status == 200]
        outcome.layers.update({
            "server.handler_s": statistics.median(handler),
            "server.outside_s": statistics.median(sent) - statistics.median(handler),
            "server.cpu_per_query_s": cpu_used / max(1, len(sent)),
            "server.rejected": float(rejected),
            "loadgen.late_p90_s": percentile([item.late for item in schedule], 90),
        })
    return outcome
