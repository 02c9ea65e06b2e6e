"""E13 — compiled-spanner runtime: amortized preprocessing throughput.

Claim (engineering, not from the paper): Theorem 3.3's preprocessing
splits into a string-independent half (trim/compaction, configuration
sweep, VE closures, terminal-edge lists, per-character burst rows) and
a string-dependent half (the leveled-graph sweep).  Hoisting the former
into :class:`~repro.runtime.CompiledSpanner` should multiply docs/sec
on repeated-automaton workloads — the serving scenario of *Reducing a
Set of Regular Expressions…* (Kalmbach et al., 2022) — by >= 3x versus
constructing a fresh ``SpannerEvaluator`` per document, with
**identical** output tuple sequences.

Workload: a dictionary extractor (log keywords plus a service-name
vocabulary, most absent from any given line) evaluated over individual
machine-log lines.  Short documents with a mid-sized automaton are the
amortization-friendliest — and the most serving-realistic — regime:
per document the string sweep is tiny, while the cold path re-derives
an ~200-state automaton's closures and predicate tables every time.

Series reproduced:

* docs/sec, cold vs compiled, as the corpus grows (the speedup is a
  per-document constant, so it should be roughly corpus-size
  independent);
* the same on longer multi-sentence documents, where the string sweep
  dilutes the saving (speedup smaller but still > 1);
* a count-only workload (``count_many``), no tuple decoding;
* the multiprocess scaling curve (``ParallelSpanner``, 1/2/4/8
  workers): docs/sec and speedup versus the serial compiled path,
  with identical outputs asserted per worker count — the speedup
  ceiling is the machine's physical core count, which the table
  reports;
* the long-lived serving fleet (``SpannerService``) versus fresh
  per-call pools on repeated mixed-query batches: the fleet pays
  worker startup and artifact shipment once and then serves every
  batch of every registered query from the same resident workers,
  while the per-call path re-pays both on every batch; a
  recycle-enabled row measures the overhead of continuously replacing
  workers (``max_tasks_per_worker``);
* the document transport (E13f): pipe vs shared-memory docs/sec for
  in-memory corpora across document sizes at 4 workers.  The probe
  query is anchored and (almost) never matches, so the per-document
  sweep exits on the first character and the measured throughput is
  the *transport* — the pickled-task-pipe copy chain versus one
  shared-memory pack and a lazy worker-side decode; a few planted
  full-match documents keep the asserted outputs nonempty;
* the fault-tolerance tax (E13g): the E13a workload on a fleet with
  per-task deadlines and heartbeats enabled (``task_timeout=30``)
  versus disabled — no fault fires, so the delta is the bookkeeping
  overhead of the healthy path (target <= 3%);
* the resource-governance tax (E13h): the same workload with the full
  governance layer armed — shm budget, result-size caps, memory
  watchdog, compile admission — at limits generous enough that
  nothing ever trips, versus everything off; the delta is the cost of
  *checking* the limits (target <= 1%), and every governance counter
  must read 0;
* the durable-store payoff (E13i): cold ``register()`` (compile + a
  checksummed artifact write) versus a warm register in a fresh driver
  generation that revives the artifact by source fingerprint without
  compiling — also the per-query cost of ``SpannerService.restore()``;
  store hit/corrupt/orphan counters are stamped into the table;
* fused multi-query serving (E13j): Q registered queries answering one
  corpus through ``submit_all`` — one fused document pass
  (``fuse=True``) versus Q sequential scans (``fuse=False``) — with
  per-query outputs asserted byte-identical both ways; the workload is
  scan-dominated (anchored probes over ~16 KiB documents), so the
  speedup column isolates the costs fusion actually shares — document
  transport, decode and dispatch, paid once instead of Q times
  (target: fused wins from Q >= 4);
* output equality is asserted, not sampled.
"""

from __future__ import annotations

import time

from repro.enumeration import SpannerEvaluator
from repro.extractors import capitalized_spanner, dictionary_spanner
from repro.runtime import CompiledSpanner, ParallelSpanner, SpannerService
from repro.text import log_lines, sentences
from repro.vset import compile_regex

from .common import Table, available_cpus

#: Log keywords + a service-name vocabulary: the fixed query workload.
DICTIONARY = [
    "disk", "net", "auth", "db", "cache", "ERROR", "INFO", "timeout",
    "retry", "request", "connection", "checksum", "scheduled",
    "completed", "reset", "exceeded", "mismatch", "code",
] + [f"svc{i}" for i in range(16)]


def log_corpus(n_docs: int, seed: int = 3) -> list[str]:
    """``n_docs`` individual machine-log lines (short documents)."""
    return log_lines(n_docs, seed=seed).split("\n")


def sentence_corpus(n_docs: int, seed: int = 13) -> list[str]:
    """Longer documents: 3 sentences with a planted address each."""
    return [
        sentences(3, seed=seed + i, plant_addresses=1)
        for i in range(n_docs)
    ]


def workload_automaton():
    return compile_regex(dictionary_spanner(DICTIONARY)).compacted()


#: E13f's probe: anchored, so on any document that is not exactly the
#: needle the sweep's frontier dies on the first character and the
#: evaluation graph build exits immediately — per-document cost is
#: O(1), which is what lets the table read as a *transport* benchmark.
TRANSPORT_NEEDLE = "ZQXJKW"


def transport_corpus(n_docs: int, doc_bytes: int) -> list[str]:
    """``n_docs`` ASCII documents of ~``doc_bytes`` each, every eighth
    one a planted full match of :data:`TRANSPORT_NEEDLE` (so the
    parity assertions compare nonempty outputs, not just empty lists).
    """
    docs = []
    for i in range(n_docs):
        if i % 8 == 7:
            docs.append(TRANSPORT_NEEDLE)
            continue
        line = f"log line {i:06d} lorem ipsum dolor sit amet "
        reps = max(1, doc_bytes // len(line))
        docs.append(line * reps)
    return docs


def _cold_pass(automaton, docs: list[str]) -> list[list]:
    """Per-document evaluator construction: preprocessing paid per doc."""
    return [list(SpannerEvaluator(automaton, doc)) for doc in docs]


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _timed_best(fn, repeat: int = 3) -> tuple[float, object]:
    """Best-of-``repeat`` wall clock: robust to GC pauses / noisy CI."""
    best = float("inf")
    out = None
    for _ in range(repeat):
        elapsed, out = _timed(fn)
        best = min(best, elapsed)
    return best, out


def run() -> list[Table]:
    automaton = workload_automaton()

    throughput = Table(
        "E13a  docs/sec over log lines: cold SpannerEvaluator vs "
        "CompiledSpanner.evaluate_many",
        ["docs", "cold (s)", "compiled (s)", "cold docs/s",
         "compiled docs/s", "speedup"],
    )
    for n_docs in (50, 100, 200, 400):
        docs = log_corpus(n_docs)
        spanner = CompiledSpanner(automaton)
        # Warm the burst table on one document so the sweep measures
        # the steady serving state, then time full passes.
        list(spanner.stream(docs[0]))
        cold_s, cold_out = _timed(lambda: _cold_pass(automaton, docs))
        comp_s, comp_out = _timed(lambda: list(spanner.evaluate_many(docs)))
        assert comp_out == cold_out, "compiled output diverged from cold"
        throughput.add(
            n_docs, cold_s, comp_s,
            n_docs / cold_s, n_docs / comp_s, cold_s / comp_s,
        )
    throughput.note(
        "identical tuple sequences asserted per corpus; target >= 3x"
    )

    long_docs = Table(
        "E13b  longer documents (3 sentences each, capitalized-word "
        "extractor): sweep dilutes the saving",
        ["docs", "cold (s)", "compiled (s)", "speedup", "answers/doc"],
    )
    cap = compile_regex(capitalized_spanner()).compacted()
    for n_docs in (50, 100):
        docs = sentence_corpus(n_docs)
        spanner = CompiledSpanner(cap)
        list(spanner.stream(docs[0]))
        cold_s, cold_out = _timed(lambda: _cold_pass(cap, docs))
        comp_s, comp_out = _timed(lambda: list(spanner.evaluate_many(docs)))
        assert comp_out == cold_out
        long_docs.add(
            n_docs, cold_s, comp_s, cold_s / comp_s,
            sum(map(len, comp_out)) / n_docs,
        )

    counts = Table(
        "E13c  count-only workload over log lines (no tuple decoding)",
        ["docs", "cold (s)", "compiled (s)", "speedup", "total tuples"],
    )
    for n_docs in (100, 200):
        docs = log_corpus(n_docs)
        spanner = CompiledSpanner(automaton)
        spanner.count(docs[0])
        cold_s, cold_counts = _timed(
            lambda: [SpannerEvaluator(automaton, d).count() for d in docs]
        )
        comp_s, comp_counts = _timed(lambda: list(spanner.count_many(docs)))
        assert comp_counts == cold_counts
        counts.add(n_docs, cold_s, comp_s, cold_s / comp_s, sum(comp_counts))

    scaling = Table(
        "E13d  multiprocess sharding (ParallelSpanner over log lines): "
        "scaling vs the serial compiled path",
        ["workers", "docs", "wall (s)", "docs/s", "speedup"],
    )
    docs = log_corpus(800)
    spanner = CompiledSpanner(automaton)
    list(spanner.stream(docs[0]))
    serial_s, serial_out = _timed_best(
        lambda: list(spanner.evaluate_many(docs))
    )
    scaling.add(1, len(docs), serial_s, len(docs) / serial_s, 1.0)
    for workers in (2, 4, 8):
        with ParallelSpanner(
            spanner, workers=workers, chunk_size=32
        ) as engine:
            par_s, par_out = _timed_best(
                lambda: list(engine.evaluate_many(docs))
            )
        assert par_out == serial_out, (
            f"parallel output diverged from serial at {workers} workers"
        )
        scaling.add(
            workers, len(docs), par_s, len(docs) / par_s, serial_s / par_s
        )
    scaling.note(
        f"identical tuple sequences asserted per worker count; "
        f"{available_cpus()} cpu(s) available — the speedup ceiling is "
        "the physical core count (target >= 2x at 4 workers on >= 4 cores)"
    )

    fleet_table = Table(
        "E13e  long-lived fleet (SpannerService) vs fresh per-call pools: "
        "repeated mixed-query batches, 2 workers",
        ["scenario", "batches", "docs", "wall (s)", "docs/s", "speedup"],
    )
    dict_spanner = CompiledSpanner(automaton)
    cap_spanner = CompiledSpanner(cap)
    # Six alternating batches of two different registered queries — the
    # serving shape the fleet exists for: neither artifact is ever
    # recompiled or reshipped after its first batch.
    batches = [
        (dict_spanner, log_corpus(120, seed=31)),
        (cap_spanner, sentence_corpus(20, seed=41)),
    ] * 3
    expected = [
        list(spanner.evaluate_many(docs)) for spanner, docs in batches
    ]
    total_docs = sum(len(docs) for _spanner, docs in batches)

    def per_call_pools() -> list:
        # A fresh 2-worker pool per batch: pays startup + one artifact
        # shipment per worker on every single batch.
        out = []
        for spanner, docs in batches:
            engine = ParallelSpanner(spanner, workers=2, chunk_size=16)
            out.append(list(engine.evaluate_many(docs)))
        return out

    def fleet_pass(service: SpannerService, ids: list[str]) -> list:
        futures = [
            service.submit(docs, queries=qid)
            for qid, (_spanner, docs) in zip(ids, batches)
        ]
        return [future.result() for future in futures]

    percall_s, percall_out = _timed_best(per_call_pools)
    assert percall_out == expected, "per-call pool output diverged"
    fleet_table.add(
        "fresh pool per batch", len(batches), total_docs, percall_s,
        total_docs / percall_s, 1.0,
    )

    with SpannerService(workers=2, chunk_size=16) as service:
        ids = [service.register(s) for s, _docs in batches[:2]] * 3
        fleet_pass(service, ids)  # warm: artifacts shipped once
        fleet_s, fleet_out = _timed_best(lambda: fleet_pass(service, ids))
    assert fleet_out == expected, "fleet output diverged"
    fleet_table.add(
        "resident fleet", len(batches), total_docs, fleet_s,
        total_docs / fleet_s, percall_s / fleet_s,
    )

    with SpannerService(
        workers=2, chunk_size=16, max_tasks_per_worker=4
    ) as service:
        ids = [service.register(s) for s, _docs in batches[:2]] * 3
        recycle_s, recycle_out = _timed_best(
            lambda: fleet_pass(service, ids)
        )
        recycles = service.workers_recycled
    assert recycle_out == expected, "recycling fleet output diverged"
    fleet_table.add(
        "fleet, recycle every 4 tasks", len(batches), total_docs,
        recycle_s, total_docs / recycle_s, percall_s / recycle_s,
    )
    fleet_table.note(
        "identical tuple sequences asserted per scenario; the resident "
        "fleet serves both registered queries from the same workers, "
        "shipping each compiled artifact at most once per worker "
        f"lifetime ({recycles} recycles in the recycling row)"
    )

    tables = [throughput, long_docs, counts, scaling, fleet_table]
    transport_table = _run_e13f()
    if transport_table is not None:
        tables.append(transport_table)
    tables.append(_run_e13g())
    tables.append(_run_e13h())
    tables.append(_run_e13i())
    tables.append(_run_e13j())
    tables.append(_run_e13k())
    return tables


def _run_e13k():
    """E13k: the compute backends head to head on the E13a workload.

    The same log-line corpus and dictionary extractor as E13a, served
    through ``ParallelSpanner`` over each concrete backend at 1 and 4
    workers.  Outputs are asserted byte-identical across every cell —
    the backend choice is a pure performance/isolation trade, never a
    semantic one.  Informational (reported, not gated): which backend
    wins depends on the interpreter (GIL vs free-threaded), the
    document mix and the core count, and the decision table in the
    README is the operator guidance this table backs with numbers.
    """
    automaton = workload_automaton()
    docs = log_corpus(800)
    spanner = CompiledSpanner(automaton)
    list(spanner.stream(docs[0]))  # warm the burst table
    bare_s, bare_out = _timed_best(lambda: list(spanner.evaluate_many(docs)))
    table = Table(
        "E13k  backend comparison (ParallelSpanner over the E13a log "
        "corpus): process vs thread vs serial at 1 and 4 workers",
        ["backend", "workers", "docs", "wall (s)", "docs/s",
         "vs bare serial"],
    )
    table.add(
        "(bare CompiledSpanner)", 1, len(docs), bare_s,
        len(docs) / bare_s, 1.0,
    )
    for backend in ("serial", "thread", "process"):
        for workers in (1, 4):
            if backend == "serial" and workers > 1:
                continue  # inline execution has no parallelism to buy
            with ParallelSpanner(
                spanner, workers=workers, backend=backend, chunk_size=32
            ) as engine:
                wall_s, out = _timed_best(
                    lambda: list(engine.evaluate_many(docs))
                )
            assert out == bare_out, (
                f"{backend} backend output diverged at {workers} workers"
            )
            table.add(
                backend, workers, len(docs), wall_s,
                len(docs) / wall_s, bare_s / wall_s,
            )
    table.note(
        "identical tuple sequences asserted per cell; informational "
        "(no gate) — expected shape: serial tracks the bare engine "
        "minus session bookkeeping, process wins CPU-bound throughput "
        "at 4 workers on a GIL build, thread wins only on "
        "free-threaded interpreters but always skips spawn/IPC cost "
        f"({available_cpus()} cpu(s) available)"
    )
    return table


def _run_e13j():
    """E13j: fused multi-query serving vs Q sequential scans.

    Q anchored probe queries (distinct needles, E13f's O(1)-per-
    document shape) registered on one 2-worker fleet, all answering
    the same ~16 KiB-document corpus through ``submit_all``.
    ``fuse=False`` dispatches Q independent scans — the pre-fusion
    serving shape, shipping every document to the workers Q times;
    ``fuse=True`` serves the whole set from one pass, shipping each
    document once and demultiplexing tuples per member.  Per-query
    outputs are asserted byte-identical between the two modes and
    against the serial engine.

    The fused sweep deliberately runs each member's solo construction
    verbatim (that is what makes the streams byte-identical), so the
    per-member automaton work is never shared — what fusion shares is
    everything *around* it: document transport, worker-side decode,
    task dispatch and result round-trips, all paid once instead of Q
    times.  This table therefore measures the scan-dominated serving
    regime those shared costs govern; on workloads where per-query
    evaluation dwarfs the scan, fusion is byte-identical but roughly
    cost-neutral (the README's decision table spells this out).
    ``docs/s`` counts *corpus* documents per second for the whole
    query set.
    """
    n_docs, doc_bytes = 64, 16 * 1024
    table = Table(
        "E13j  fused multi-query serving (submit_all, 2 workers, "
        "anchored probes over ~16 KiB documents): one fused pass vs "
        "Q sequential scans",
        ["queries", "docs", "sequential (s)", "fused (s)",
         "seq docs/s", "fused docs/s", "fused speedup"],
    )
    for n_queries in (1, 2, 4, 8):
        needles = [f"ZQXJKW{i}V" for i in range(n_queries)]
        # Every needle planted round-robin on each eighth document, so
        # each member's asserted output is nonempty at every Q.
        docs = []
        for i in range(n_docs):
            if i % 8 == 7:
                docs.append(needles[(i // 8) % n_queries])
                continue
            line = f"log line {i:06d} lorem ipsum dolor sit amet "
            docs.append(line * max(1, doc_bytes // len(line)))
        probes = [
            CompiledSpanner("x{" + needle + "}") for needle in needles
        ]
        serial = [list(p.evaluate_many(docs)) for p in probes]
        with SpannerService(workers=2, chunk_size=4) as service:
            ids = [service.register(p) for p in probes]

            def batch(fuse: bool) -> list:
                futures = service.submit_all(docs, queries=ids, fuse=fuse)
                return [futures[qid].result() for qid in ids]

            batch(True)  # warm: artifacts and the fused engine shipped
            batch(False)
            seq_s, seq_out = _timed_best(lambda: batch(False))
            fused_s, fused_out = _timed_best(lambda: batch(True))
        assert seq_out == serial, "sequential fleet output diverged"
        assert fused_out == serial, "fused fleet output diverged"
        table.add(
            n_queries, n_docs, seq_s, fused_s,
            n_docs / seq_s, n_docs / fused_s, seq_s / fused_s,
        )
    table.note(
        "per-query tuple sequences asserted byte-identical fused vs "
        "sequential vs serial at every Q; anchored probes exit the "
        "sweep on the first character, so the measured cost is the "
        "shared scan machinery (transport, decode, dispatch) the "
        "sequential path pays Q times; Q=1 routes through the same "
        "plan_submission decision point and degrades to one sequential "
        "scan (speedup ~1 by construction) — target: fused beats Q "
        "sequential scans from Q >= 4"
    )
    return table


def _run_e13g():
    """E13g: the price of fault tolerance on the healthy path.

    The E13a workload (dictionary automaton over log lines) served by a
    2-worker fleet, deadlines disabled (``task_timeout=None`` — the
    collector never reads heartbeats) versus enabled (``task_timeout=30``
    — workers stamp per-task heartbeats and the collector checks every
    outstanding task each poll).  No fault fires, so the delta is pure
    bookkeeping overhead; the timeouts/quarantines columns must read 0.
    """
    automaton = workload_automaton()
    table = Table(
        "E13g  deadline + heartbeat overhead (2-worker fleet, E13a "
        "workload): task_timeout off vs 30s",
        ["docs", "off (s)", "on (s)", "off docs/s", "on docs/s",
         "overhead %", "timeouts", "quarantines"],
    )
    for n_docs in (800, 1600):
        docs = log_corpus(n_docs)
        serial = list(CompiledSpanner(automaton).evaluate_many(docs))
        timings = {}
        counters = {}
        for label, timeout in (("off", None), ("on", 30.0)):
            with SpannerService(
                workers=2, chunk_size=16, task_timeout=timeout
            ) as service:
                qid = service.register(CompiledSpanner(automaton))
                # warm: artifact shipped
                service.submit(docs, queries=qid).result()
                elapsed, out = _timed_best(
                    lambda: service.submit(docs, queries=qid).result(),
                    repeat=5,
                )
                counters[label] = (
                    service.tasks_timed_out,
                    len(service.quarantined_queries),
                )
            assert out == serial, f"deadline={label} output diverged"
            timings[label] = elapsed
        assert counters["on"] == (0, 0), "healthy path tripped a deadline"
        overhead = (timings["on"] / timings["off"] - 1.0) * 100.0
        table.add(
            n_docs, timings["off"], timings["on"],
            n_docs / timings["off"], n_docs / timings["on"],
            overhead, counters["on"][0], counters["on"][1],
        )
    table.note(
        "identical tuple sequences asserted with deadlines on and off; "
        "no injected faults, so timeouts/quarantines must be 0 — "
        "target: <= 3% overhead with deadlines enabled (best-of-5 "
        "passes per cell; single-pass noise on shared runners is wider "
        "than the effect, so read the sign across corpus sizes)"
    )
    return table


def _run_e13h():
    """E13h: the price of resource governance on the healthy path.

    The E13a workload on a 2-worker fleet with the whole governance
    layer armed — shm byte budget, per-query result caps, the worker
    memory watchdog, compile-time admission with a sandboxed compile —
    at limits far above what the workload needs, versus a fleet with
    every knob off.  Nothing trips (the governance counters are
    asserted 0), so the delta is the per-task cost of *checking*:
    cap bookkeeping in the enumeration loop, one RSS read per
    heartbeat, budget arithmetic per pack.  Target <= 1% — cheaper
    than E13g's deadlines because the checks ride existing loops.
    """
    automaton = workload_automaton()
    table = Table(
        "E13h  resource-governance overhead (2-worker fleet, E13a "
        "workload): all limits off vs armed-but-generous",
        ["docs", "off (s)", "on (s)", "off docs/s", "on docs/s",
         "overhead %", "degraded", "truncated"],
    )
    governed = dict(
        shm_budget=256 * 1024 * 1024,
        max_tuples=10_000_000,
        max_result_bytes=1 << 30,
        on_result_limit="truncate",
        worker_memory_limit=4 << 30,
        worker_memory_hard_limit=8 << 30,
        max_compile_states=100_000,
        compile_timeout=60.0,
    )
    for n_docs in (800, 1600):
        docs = log_corpus(n_docs)
        serial = list(CompiledSpanner(automaton).evaluate_many(docs))
        timings = {}
        counters = {}
        for label, knobs in (("off", {}), ("on", governed)):
            with SpannerService(
                workers=2, chunk_size=16, **knobs
            ) as service:
                qid = service.register(CompiledSpanner(automaton))
                # warm: artifact shipped
                service.submit(docs, queries=qid).result()
                elapsed, out = _timed_best(
                    lambda: service.submit(docs, queries=qid).result(),
                    repeat=5,
                )
                resources = service.health()["resources"]
                counters[label] = (
                    resources["degraded_to_pipe"],
                    resources["docs_truncated"],
                    resources["tasks_result_limited"],
                    resources["queries_rejected"],
                    resources["memory_recycles"],
                    resources["memory_kills"],
                )
            assert out == serial, f"governance={label} output diverged"
            timings[label] = elapsed
        assert counters["on"] == (0, 0, 0, 0, 0, 0), (
            f"generous limits tripped on the healthy path: {counters['on']}"
        )
        overhead = (timings["on"] / timings["off"] - 1.0) * 100.0
        table.add(
            n_docs, timings["off"], timings["on"],
            n_docs / timings["off"], n_docs / timings["on"],
            overhead, counters["on"][0], counters["on"][1],
        )
    table.note(
        "identical tuple sequences asserted with governance on and off; "
        "limits are set far above the workload so every governance "
        "counter (degradations, truncations, result-limit failures, "
        "rejections, memory recycles/kills) must read 0 — target: "
        "<= 1% overhead with all limits armed (best-of-5 passes per "
        "cell; single-pass noise on shared runners is wider than the "
        "effect, so read the sign across corpus sizes)"
    )
    return table


def _run_e13i():
    """E13i: cold vs warm ``register()`` through a durable FileStore.

    A cold register compiles the query and writes the artifact; a warm
    register in a *new* driver generation finds the artifact under its
    source fingerprint and skips the compile entirely — the speedup is
    the compile time divided by one checksummed read.  This is also
    exactly the ``SpannerService.restore()`` revival path, so the warm
    column doubles as the restart-latency-per-query trajectory.  Store
    hits must equal 1 per warm register and the corrupt/orphan counters
    must read 0 — nonzero means the benchmark ran against a damaged
    cache or a crash-littered ``/dev/shm``.
    """
    import tempfile

    from repro.extractors import dictionary_spanner as _dict_spanner
    from repro.runtime import FileStore

    table = Table(
        "E13i  durable artifact store (FileStore): cold register "
        "(compile + put) vs warm register (fingerprint hit, no compile)",
        ["source", "cold (s)", "warm (s)", "speedup",
         "hits", "corrupt", "orphans"],
    )
    sources = [
        ("dictionary formula", _dict_spanner(DICTIONARY)),
        ("capitalized-word formula", capitalized_spanner()),
    ]
    for name, source in sources:
        with tempfile.TemporaryDirectory() as tmp:
            # Cold: best-of-3, each against an untouched directory.
            cold_best = float("inf")
            for i in range(3):
                store = FileStore(f"{tmp}/cold{i}")
                with SpannerService(
                    workers=2, artifact_store=store
                ) as service:
                    elapsed, qid = _timed(lambda: service.register(source))
                cold_best = min(cold_best, elapsed)
                assert store.stats()["puts"] == 1
            # Warm: best-of-3 fresh driver generations over one shared
            # directory seeded by the last cold run.
            warm_best = float("inf")
            for _ in range(3):
                store = FileStore(f"{tmp}/cold2")
                with SpannerService(
                    workers=2, artifact_store=store
                ) as service:
                    elapsed, warm_qid = _timed(
                        lambda: service.register(source)
                    )
                    orphans = service.health()["resources"]["orphans_swept"]
                warm_best = min(warm_best, elapsed)
                stats = store.stats()
                assert warm_qid == qid, "warm register produced a new id"
                assert stats["hits"] == 1 and stats["puts"] == 0
            table.add(
                name, cold_best, warm_best, cold_best / warm_best,
                stats["hits"], stats["corrupt_quarantined"], orphans,
            )
    table.note(
        "identical query ids asserted cold vs warm (the id fingerprints "
        "the artifact payload, so a matching id means byte-identical "
        "artifacts); hits must read 1 per warm register and "
        "corrupt/orphans 0 — the warm column is also the per-query "
        "revival cost of SpannerService.restore()"
    )
    return table


def _run_e13f():
    """E13f: pipe vs shared-memory document transport at 4 workers.

    ``None`` (table skipped, never recorded wrong) where POSIX shared
    memory is unavailable.
    """
    from repro.runtime import shm_available

    if not shm_available():  # pragma: no cover - POSIX-less runners
        return None
    table = Table(
        "E13f  document transport (in-memory corpora, 4 workers): "
        "task pipe vs shared-memory segments by document size",
        ["doc KiB", "docs", "pipe (s)", "shm (s)",
         "pipe docs/s", "shm docs/s", "shm speedup"],
    )
    probe = CompiledSpanner("x{" + TRANSPORT_NEEDLE + "}")
    for doc_kib, n_docs in ((4, 96), (64, 48), (256, 24)):
        docs = transport_corpus(n_docs, doc_kib * 1024)
        serial = list(probe.evaluate_many(docs))
        timings = {}
        for mode in ("pipe", "shm"):
            with ParallelSpanner(
                probe, workers=4, chunk_size=4, transport=mode
            ) as engine:
                list(engine.evaluate_many(docs))  # warm: fleet started
                elapsed, out = _timed_best(
                    lambda: list(engine.evaluate_many(docs)), repeat=2
                )
            assert out == serial, f"{mode} transport output diverged"
            timings[mode] = elapsed
        # "auto" must negotiate per chunk and still match byte-for-byte.
        with ParallelSpanner(
            probe, workers=4, chunk_size=4, transport="auto"
        ) as engine:
            assert list(engine.evaluate_many(docs)) == serial, (
                "auto transport output diverged"
            )
        table.add(
            doc_kib, n_docs, timings["pipe"], timings["shm"],
            n_docs / timings["pipe"], n_docs / timings["shm"],
            timings["pipe"] / timings["shm"],
        )
    table.note(
        "anchored probe query: the sweep exits on the first character, "
        "so docs/sec measures the transport itself; outputs asserted "
        "identical across serial/pipe/shm/auto at every size (planted "
        "full-match documents keep them nonempty); target: shm beats "
        "pipe from 64 KiB documents up"
    )
    return table


# ---------------------------------------------------------------------------
# pytest checks / micro-benchmarks
# ---------------------------------------------------------------------------


def test_e13_speedup_and_equality():
    """Acceptance: >= 3x docs/sec on a 100+-doc corpus, same outputs.

    Both sides take the best of three passes so a GC pause or CPU
    throttle on a shared CI runner cannot flip the verdict.
    """
    automaton = workload_automaton()
    docs = log_corpus(150)
    spanner = CompiledSpanner(automaton)
    list(spanner.stream(docs[0]))  # steady state: burst table warmed
    cold_s, cold_out = _timed_best(lambda: _cold_pass(automaton, docs))
    comp_s, comp_out = _timed_best(lambda: list(spanner.evaluate_many(docs)))
    assert comp_out == cold_out
    speedup = cold_s / comp_s
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x target"


def test_e13_compiled_throughput(benchmark):
    automaton = workload_automaton()
    docs = log_corpus(50)
    spanner = CompiledSpanner(automaton)
    list(spanner.stream(docs[0]))
    benchmark(lambda: list(spanner.evaluate_many(docs)))


def test_e13_parallel_two_workers_identical():
    """CI smoke: a 2-worker shard must reproduce the serial output.

    Byte-identical, not just equal: the canonical rendering of every
    tuple list is compared as bytes, so ordering, grouping and span
    values all have to match exactly.  No timing assertion — wall-clock
    parity depends on the runner's core count; the scaling curve lives
    in the E13d table.
    """
    automaton = workload_automaton()
    docs = log_corpus(120)
    spanner = CompiledSpanner(automaton)
    serial = list(spanner.evaluate_many(docs))
    with ParallelSpanner(spanner, workers=2, chunk_size=16) as engine:
        parallel = list(engine.evaluate_many(docs))
    assert parallel == serial

    def canonical(out: list) -> bytes:
        lines = [
            ";".join(
                " ".join(f"{v}={t[v]}" for v in sorted(t.variables))
                for t in per_doc
            )
            for per_doc in out
        ]
        return "\n".join(lines).encode()

    assert canonical(parallel) == canonical(serial)


def _canonical(out: list) -> bytes:
    lines = [
        ";".join(
            " ".join(f"{v}={t[v]}" for v in sorted(t.variables))
            for t in per_doc
        )
        for per_doc in out
    ]
    return "\n".join(lines).encode()


def test_e13_backend_comparison_identical():
    """CI smoke for E13k: every compute backend reproduces the serial
    output byte-for-byte on the E13a workload.  No timing assertion —
    which backend is fastest is machine-dependent; the numbers live in
    the E13k table.
    """
    automaton = workload_automaton()
    docs = log_corpus(120)
    spanner = CompiledSpanner(automaton)
    serial = list(spanner.evaluate_many(docs))
    for backend in ("serial", "thread", "process"):
        with ParallelSpanner(
            spanner, workers=2, backend=backend, chunk_size=16
        ) as engine:
            out = list(engine.evaluate_many(docs))
        assert _canonical(out) == _canonical(serial), backend


def test_e13_fleet_two_queries_identical():
    """CI smoke: a 2-worker fleet serving two queries concurrently —
    one of them a fused equality query — must match serial byte-for-byte.

    Both queries' batches are dispatched before either result is
    consumed, so the workers genuinely interleave them.  No timing
    assertion (shared CI runners advertise vCPUs, not cores); the
    fleet-vs-pool economics live in the E13e table.
    """
    from .bench_e10_equality import _wide_dedup_query, _wide_text
    from repro.queries.compiled import CompiledEvaluator

    automaton = workload_automaton()
    dict_docs = log_corpus(80)
    dict_serial = list(CompiledSpanner(automaton).evaluate_many(dict_docs))
    eq_engine = CompiledEvaluator().equality_runtime(_wide_dedup_query())
    assert eq_engine is not None
    eq_docs = [_wide_text(24, seed=200 + i) for i in range(12)]
    eq_serial = list(eq_engine.evaluate_many(eq_docs))

    with SpannerService(workers=2, chunk_size=8) as service:
        q_dict = service.register(CompiledSpanner(automaton))
        q_eq = service.register(eq_engine)
        f_dict = service.submit(dict_docs, queries=q_dict)
        f_eq = service.submit(eq_docs, queries=q_eq)
        assert _canonical(f_dict.result()) == _canonical(dict_serial)
        assert _canonical(f_eq.result()) == _canonical(eq_serial)


def test_e13_fleet_recycle_identical():
    """CI smoke: max_tasks_per_worker=1 — every task retires its worker
    and a fresh process takes over — still yields identical results."""
    automaton = workload_automaton()
    docs = log_corpus(60)
    serial = list(CompiledSpanner(automaton).evaluate_many(docs))
    with SpannerService(
        workers=2, chunk_size=4, max_tasks_per_worker=1
    ) as service:
        qid = service.register(CompiledSpanner(automaton))
        out = service.submit(docs, queries=qid).result()
        assert _canonical(out) == _canonical(serial)
        assert service.workers_recycled > 0


def test_e13_shm_transport_parity_two_workers():
    """CI smoke: a 2-worker shard over forced shared-memory transport
    must reproduce the serial output byte-for-byte — on a real
    extraction workload, not the E13f probe — and leave no segment
    behind in ``/dev/shm`` after the fleet closes.
    """
    import glob
    import os

    import pytest

    from repro.runtime import shm_available

    if not shm_available():
        pytest.skip("POSIX shared memory unavailable on this platform")
    automaton = workload_automaton()
    # ~4 KiB documents assembled from log lines: big enough that shm
    # genuinely carries the bytes, small enough to evaluate quickly.
    lines = log_corpus(240)
    docs = [" ".join(lines[i : i + 48]) for i in range(0, 240, 48)] * 4
    serial = list(CompiledSpanner(automaton).evaluate_many(docs))
    with ParallelSpanner(
        automaton, workers=2, chunk_size=2, transport="shm"
    ) as engine:
        shard = list(engine.evaluate_many(docs))
    assert _canonical(shard) == _canonical(serial)
    if os.path.isdir("/dev/shm"):
        leftovers = glob.glob("/dev/shm/sjdoc-*")
        assert not leftovers, f"leaked shm segments: {leftovers}"


def test_e13_governed_fleet_identical():
    """CI smoke: a fleet with the whole governance layer armed at
    generous limits — shm budget, result caps, memory watchdog,
    compile admission — must match the ungoverned serial output
    byte-for-byte with every governance counter at 0.  Identity
    asserts only, no wall-clock bound (the overhead timing lives in
    the E13h table); this is the guard against governance checks
    perturbing the answer stream on the healthy path.
    """
    automaton = workload_automaton()
    docs = log_corpus(120)
    serial = list(CompiledSpanner(automaton).evaluate_many(docs))
    with SpannerService(
        workers=2,
        chunk_size=16,
        shm_budget=256 * 1024 * 1024,
        max_tuples=10_000_000,
        max_result_bytes=1 << 30,
        on_result_limit="truncate",
        worker_memory_limit=4 << 30,
        worker_memory_hard_limit=8 << 30,
        max_compile_states=100_000,
        compile_timeout=60.0,
    ) as service:
        qid = service.register(CompiledSpanner(automaton))
        out = service.submit(docs, queries=qid).result()
        resources = service.health()["resources"]
    assert _canonical(out) == _canonical(serial)
    assert resources["degraded_to_pipe"] == 0
    assert resources["docs_truncated"] == 0
    assert resources["tasks_result_limited"] == 0
    assert resources["queries_rejected"] == 0
    assert resources["memory_recycles"] == 0
    assert resources["memory_kills"] == 0


def test_e13_fused_vs_sequential_identical():
    """CI smoke: submit_all over a mixed query set — two dictionary
    extractors and a fused equality query — must produce per-query
    results byte-identical between one fused scan (``fuse=True``),
    Q sequential scans (``fuse=False``) and the serial engines.
    Identity asserts only, no wall-clock bound (the fused economics
    live in the E13j table)."""
    from .bench_e10_equality import _wide_dedup_query, _wide_text
    from repro.queries.compiled import CompiledEvaluator

    dict_a = CompiledSpanner(workload_automaton())
    dict_b = CompiledSpanner(
        compile_regex(dictionary_spanner(DICTIONARY[::2])).compacted()
    )
    eq_engine = CompiledEvaluator().equality_runtime(_wide_dedup_query())
    assert eq_engine is not None
    # One shared corpus: every member of a fused batch answers the
    # same documents (that is what makes one scan serve all of them).
    docs = [_wide_text(24, seed=300 + i) for i in range(8)] + log_corpus(40)
    engines = [dict_a, dict_b, eq_engine]
    serial = [list(e.evaluate_many(docs)) for e in engines]

    with SpannerService(workers=2, chunk_size=8) as service:
        ids = [service.register(e) for e in engines]
        fused = service.submit_all(docs, queries=ids)
        sequential = service.submit_all(docs, queries=ids, fuse=False)
        for qid, expected in zip(ids, serial):
            assert _canonical(fused[qid].result()) == _canonical(expected)
            assert _canonical(sequential[qid].result()) == _canonical(
                expected
            )


def test_e13_parallel_speedup_when_cores_allow():
    """>= 2x docs/sec at 4 workers — on hardware that can deliver it.

    The timing bound only binds where >= 4 CPUs are available; on
    smaller hosts the identity assertion still runs but the bound is
    skipped.  CI deselects this test entirely (`-k "not parallel"` in
    the bench-smoke job): shared virtualized runners advertise vCPUs,
    not physical cores, and wall-clock asserts flake there — the E13d
    table records the measured curve instead.
    """
    import pytest

    automaton = workload_automaton()
    docs = log_corpus(600)
    spanner = CompiledSpanner(automaton)
    list(spanner.stream(docs[0]))
    serial_s, serial_out = _timed_best(
        lambda: list(spanner.evaluate_many(docs))
    )
    with ParallelSpanner(spanner, workers=4, chunk_size=32) as engine:
        par_s, par_out = _timed_best(lambda: list(engine.evaluate_many(docs)))
    assert par_out == serial_out
    if available_cpus() < 4:
        pytest.skip(
            f"only {available_cpus()} cpu(s) available — "
            "speedup bound needs >= 4"
        )
    speedup = serial_s / par_s
    assert speedup >= 2.0, f"speedup {speedup:.2f}x below the 2x target"
