"""The benchmark workloads: set-up, timed closed loop, output checks, trace.

Three workloads, each a closed loop (a caller sends its next request only
after the previous reply), all inputs generated from the seed:

* ``serve-logs`` — a resident ``SpannerService`` (process backend, spawn
  start method, 2 workers) with three registered queries; two client
  threads each send 48-line log batches through fused ``submit_all``.
* ``dense-logs`` — one caller streams 20-line log documents (~0.9 KiB,
  300 tuples each) through an in-process ``CompiledSpanner``.
* ``equality-cq`` — one caller streams 32-character documents through the
  fused equality runtime of the E10 dedup CQ (x = y).

Timed runs (:func:`timed_run`) call only the public entry points a user
would.  They are cut into slices, and every time measured in a slice is
scaled to a reference machine speed (see :class:`SpeedScale`).  Traced
runs (:func:`traced_run`) rebuild each request from the public functions
of every layer, time each call from outside, and check that the rebuilt
pipeline yields exactly the tuples of an untraced pass.  Nothing here
reaches into the program; the spans are the benchmark's own.
"""

from __future__ import annotations

import math
import os
import pickle
import platform
import resource
import statistics
import sys
import threading
import traceback
from array import array
from time import perf_counter, perf_counter_ns

import inputs
from repro.automata.leveled import RadixEnumerator
from repro.enumeration import (
    SpannerEvaluator,
    build_evaluation_graph,
    decode_configuration_word,
)
from repro.extractors import capitalized_spanner, dictionary_spanner
from repro.queries import CompiledEvaluator, RegexCQ
from repro.runtime import (
    AutomatonTables,
    CompiledSpanner,
    SpannerService,
    cache_metrics,
    estimate_compile_states,
)
from repro.runtime.fusion import FusedQuery, fused_sweep, plan_cohorts
from repro.text.substrings import SubstringIndex

#: serve-logs fleet shape: pinned so every run measures the same fleet
#: whatever the interpreter's default backend or start method.
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
START_METHOD = "spawn"

#: Documents pre-generated per in-process run (cycled if a run is long).
DOC_POOL = 512

#: serve-logs traced run: batches replayed in-process through the fused
#: engine and its decomposed layers.  The fleet loop alternates untraced
#: and traced slices.
REPLAY_BATCHES = 6

#: Seconds a serve-logs client or the loop's pacer waits at a slice
#: boundary for the others before the run is failed.
BARRIER_TIMEOUT_S = 60.0

DENSE_FORMULA = ".*x{[0-9]+}.*"
CODE_FORMULA = ".*code=x{[0-9]+}.*"


def equality_query() -> RegexCQ:
    """The E10 dedup CQ over an 8-letter alphabet: x{[a-h]+}, y{[a-h]+}, x = y."""
    return RegexCQ(
        ["x", "y"],
        [".*x{[a-h]+}.*", ".*y{[a-h]+}.*"],
        equalities=[("x", "y")],
    )


# -- Small measurement helpers ---------------------------------------------


def p50(values: list[float]) -> float:
    return statistics.median(values)


# -- Machine-speed calibration ---------------------------------------------

#: The speed of a shared machine drifts by tens of percent over seconds
#: to minutes as other tenants load it: longer than any affordable run can
#: average away, and the same on CPU-time clocks (it is contention, not
#: stolen time).  Every timed loop is therefore cut into slices of
#: ``SLICE_S`` seconds.  Between slices, with none of the benchmark's own
#: work in flight, a fixed pure-Python loop is timed, and each time
#: measured in a slice is multiplied by ``CAL_REF_S`` over the mean of the
#: calibrations before and after the slice, raised to ``CAL_EXPONENT``.
#: Reported times are thus those of a machine on which one calibration
#: pass takes ``CAL_REF_S``; each result records the measured pass time
#: (``env.calibration_us``), which converts them back to this machine's
#: seconds.  The loop depends on nothing in the program, so a faster
#: program still shows in full.
SLICE_S = 0.5
CAL_SIZE = 1_500
CAL_REPEATS = 3
CAL_REF_S = 2e-3
#: Contention slows the engines more than the pass: over 10-seed sets
#: whose machine speed varied by half, the times scaled linearly still
#: rose by 1.3 times the pass's change on every workload (log-log
#: slope).  Scale factors are raised to this power, a little below it.
CAL_EXPONENT = 1.2


def calibration_pass() -> int:
    """Fixed amounts of the three kinds of work the engines do.

    Interpreter arithmetic, small-object allocation and a walk over
    linked objects.  Contention slows each by a different share, and a
    mix tracks the engines' own slowdown better than any one alone.
    """
    s = 0
    for i in range(3 * CAL_SIZE):
        s += i * i % 7
    objects = [{"a": (i, i + 1), "b": [i]} for i in range(CAL_SIZE)]
    nodes = [[i, None] for i in range(2 * CAL_SIZE)]
    for node, successor in zip(nodes, nodes[1:]):
        node[1] = successor
    node = nodes[0]
    while node is not None:
        s += node[0]
        node = node[1]
    return s + len(objects)


def calibrate() -> float:
    """Seconds one calibration pass takes now (median of a few)."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        calibration_pass()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedScale:
    """Scale factors to the reference speed for consecutive slices."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.passes = [self.last]

    def close_slice(self) -> float:
        """Calibrate after a slice; the factor for the times measured in it."""
        now = calibrate()
        factor = (2 * CAL_REF_S / (self.last + now)) ** CAL_EXPONENT
        self.last = now
        self.passes.append(now)
        return factor

    def calibration_us(self) -> float:
        return statistics.median(self.passes) * 1e6


def scaled_seconds(action) -> float:
    """Run ``action()``; the seconds it took, at the reference speed."""
    speed = SpeedScale()
    t0 = perf_counter()
    action()
    elapsed = perf_counter() - t0
    return elapsed * speed.close_slice()


# -- Fixed-size statistics of the timed loop -------------------------------


class LogHistogram:
    """Counts of positive values in log-spaced bins 0.5% wide.

    Its size is bounded by the range of the values, not by how many are
    added, so the harness's own statistics take the same memory however
    long or fast a run is.  Quantiles interpolate within a bin.
    """

    STEP = math.log(1.005)

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0

    def add(self, value: float) -> None:
        i = math.floor(math.log(max(value, 1e-9)) / self.STEP)
        self.counts[i] = self.counts.get(i, 0) + 1
        self.n += 1

    def merge(self, other: "LogHistogram", factor: float = 1.0) -> None:
        """Add ``other``'s values, each multiplied by ``factor``."""
        shift = round(math.log(factor) / self.STEP)
        for i, c in other.counts.items():
            self.counts[i + shift] = self.counts.get(i + shift, 0) + c
        self.n += other.n

    def quantile(self, q: float) -> float:
        target = q * self.n
        seen = 0
        for i in sorted(self.counts):
            c = self.counts[i]
            if seen + c >= target:
                return math.exp((i + (target - seen) / c) * self.STEP)
            seen += c
        raise ValueError("quantile of an empty histogram")


class Slice:
    """What a slice (or a window of slices) of a timed loop measured."""

    def __init__(self) -> None:
        self.docs = 0
        self.tuples = 0
        #: Seconds of engine calls (one caller) or of wall time (several).
        self.time = 0.0
        self.latency = LogHistogram()  # per request, seconds
        self.delay = LogHistogram()  # per tuple, microseconds

    def absorb(self, other: "Slice", factor: float = 1.0) -> None:
        """Add ``other``, its times multiplied by ``factor``."""
        self.docs += other.docs
        self.tuples += other.tuples
        self.time += other.time * factor
        self.latency.merge(other.latency, factor)
        self.delay.merge(other.delay, factor)


def slice_count(seconds: float) -> int:
    """Slices in a timed loop of ``seconds``: at least two."""
    return max(2, round(seconds / SLICE_S))


#: End-to-end statistics are computed per window of the timed loop and
#: the median over windows is reported, so a slow spell that the speed
#: scaling misses and that covers fewer than half the windows moves no
#: reported figure.
WINDOWS = 10


class Windows:
    """The timed loop's slices, scaled and summed into :data:`WINDOWS` windows."""

    def __init__(self, n_slices: int) -> None:
        self.n_slices = n_slices
        self.windows = [Slice() for _ in range(WINDOWS)]

    def add(self, k: int, part: Slice, factor: float) -> None:
        """Add slice ``k`` (of ``n_slices``), scaled by ``factor``."""
        self.windows[k * WINDOWS // self.n_slices].absorb(part, factor)

    def summary(self) -> dict:
        """Median-over-windows end-to-end metrics.

        With one caller, throughput is work over the time spent inside
        the engine calls (the caller's output checks are excluded); with
        several concurrent clients it is work over the slices' wall time.
        """
        full = [w for w in self.windows if w.docs]
        if not full:
            raise RuntimeError("no request of the timed loop completed")

        def median_of(stat) -> float:
            return statistics.median(stat(w) for w in full)

        return {
            "docs_per_s": median_of(lambda w: w.docs / w.time),
            "tuples_per_s": median_of(lambda w: w.tuples / w.time),
            "latency_p50_ms": median_of(
                lambda w: w.latency.quantile(0.5) * 1e3
            ),
            "latency_p90_ms": median_of(
                lambda w: w.latency.quantile(0.9) * 1e3
            ),
            "tuple_delay_p50_us": median_of(lambda w: w.delay.quantile(0.5)),
            "tuple_delay_p90_us": median_of(lambda w: w.delay.quantile(0.9)),
        }


def max_rss_mb(who: int) -> float:
    """``ru_maxrss`` of this process or its waited-for children, in MiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(backend: str, calibration_us: float | None = None) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "backend": backend,
        "calibration_us": calibration_us,
        "start_method": START_METHOD if backend == "process" else None,
        "python": platform.python_version(),
        "gil_enabled": True if gil is None else bool(gil()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Layers:
    """Accumulated per-layer time (ns) and counts for a traced run."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add_ns(self, layer: str, ns: int) -> None:
        self.ns[layer] = self.ns.get(layer, 0) + ns

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def per(self, layer: str, unit_ns: float, denominator: str) -> float:
        """Time in ``layer``, in units of ``unit_ns``, per ``denominator``."""
        n = self.counts.get(denominator, 0)
        return self.ns.get(layer, 0) / unit_ns / n if n else 0.0

    def count_per(self, name: str, denominator: str) -> float:
        n = self.counts.get(denominator, 0)
        return self.counts.get(name, 0) / n if n else 0.0


def enumerate_graph(graph, layers: Layers) -> list:
    """Radix enumeration + decode of one pruned evaluation graph, timed.

    The same two calls ``SpannerEvaluator.__iter__`` makes, with a span
    around each ``next()`` of the enumerator and each decode.
    """
    leveled = graph.leveled
    layers.add("graph.nodes", leveled.n_nodes)
    layers.add("graph.edges", leveled.n_edges)
    layers.add("graph.live", len(leveled.live_nodes()))
    words = iter(RadixEnumerator(leveled, lambda config: config.sort_key()))
    variables = graph.variables
    out = []
    while True:
        t0 = perf_counter_ns()
        word = next(words, None)
        t1 = perf_counter_ns()
        layers.add_ns("enumerate", t1 - t0)
        if word is None:
            break
        out.append(decode_configuration_word(word, variables))
        layers.add_ns("decode", perf_counter_ns() - t1)
    layers.add("tuples", len(out))
    return out


def cache_hit_ratio() -> float:
    stats = cache_metrics().values()
    hits = sum(s.hits for s in stats)
    total = hits + sum(s.misses for s in stats)
    return hits / total if total else 0.0


# -- In-process workloads: one caller streaming documents ------------------


class StreamWorkload:
    """A single caller streaming documents through an in-process engine."""

    name = ""
    #: Documents per run compared with the slow exact-order reference;
    #: every document is also checked against the set-valued oracle.
    reference_docs = 1

    def __init__(self, seed: int):
        self.docs = self.make_docs(seed)

    # Subclass hooks.
    def make_docs(self, seed: int) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def stream(self, doc: str):
        raise NotImplementedError

    def oracle(self, doc: str) -> set:
        raise NotImplementedError

    def reference(self, doc: str) -> list:
        raise NotImplementedError

    def pipeline(self, doc: str, layers: Layers) -> list:
        raise NotImplementedError

    def states(self) -> int:
        raise NotImplementedError

    # The closed loop.
    def loop(self, seconds: float, keep: int) -> dict:
        """Stream documents for ``seconds``; every output oracle-checked.

        Timing covers only the engine calls; the oracle check runs
        between documents, outside the timed spans.  The first ``keep``
        outputs are returned for the exact-order reference comparison.
        """
        n_slices = slice_count(seconds)
        windows = Windows(n_slices)
        speed = SpeedScale()
        kept: list[list] = []
        attempted = failed = 0
        errors: list[str] = []
        for k in range(n_slices):
            part = Slice()
            slice_end = perf_counter() + SLICE_S
            while True:  # at least one document per slice
                doc = self.docs[attempted % len(self.docs)]
                attempted += 1
                out: list = []
                # Per tuple after the first: from asking for it to
                # receiving it (the caller's own bookkeeping is not
                # counted).  One document's worth is held at a time.
                delays = array("d")
                try:
                    start = perf_counter_ns()
                    prev = None
                    for t in self.stream(doc):
                        now = perf_counter_ns()
                        if prev is not None:
                            delays.append((now - prev) / 1e3)
                        out.append(t)
                        prev = perf_counter_ns()
                    end = perf_counter_ns()
                except Exception:
                    failed += 1
                    errors.append(traceback.format_exc(limit=3))
                else:
                    latency = (end - start) / 1e9
                    part.docs += 1
                    part.tuples += len(out)
                    part.time += latency
                    part.latency.add(latency)
                    for d in delays:
                        part.delay.add(d)
                    if inputs.as_set(out) != self.oracle(doc) or len(
                        out
                    ) != len(set(out)):
                        failed += 1
                        errors.append(f"{self.name}: oracle mismatch on "
                                      f"document {attempted - 1}")
                    if len(kept) < keep:
                        kept.append((doc, out))
                if perf_counter() >= slice_end:
                    break
            windows.add(k, part, speed.close_slice())
        return {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "windows": windows,
            "calibration_us": speed.calibration_us(),
            "kept": kept,
        }


class DenseLogs(StreamWorkload):
    name = "dense-logs"
    reference_docs = 4

    def make_docs(self, seed: int) -> list[str]:
        return inputs.dense_docs(seed, DOC_POOL)

    def setup(self) -> None:
        self.spanner = CompiledSpanner(DENSE_FORMULA)

    def stream(self, doc: str):
        return self.spanner.stream(doc)

    def oracle(self, doc: str) -> set:
        return inputs.digit_spans(doc)

    def reference(self, doc: str) -> list:
        # The cold evaluator: every string-independent table rebuilt.
        return list(SpannerEvaluator(self.spanner.automaton, doc))

    def states(self) -> int:
        return estimate_compile_states(self.spanner)

    def pipeline(self, doc: str, layers: Layers) -> list:
        t0 = perf_counter_ns()
        graph = build_evaluation_graph(
            self.spanner.automaton, doc, tables=self.spanner.tables
        )
        layers.add_ns("graph", perf_counter_ns() - t0)
        return enumerate_graph(graph, layers)


class EqualityCQ(StreamWorkload):
    name = "equality-cq"

    def make_docs(self, seed: int) -> list[str]:
        return inputs.equality_docs(seed, DOC_POOL)

    def setup(self) -> None:
        self.query = equality_query()
        self.engine = CompiledEvaluator().equality_runtime(self.query)

    def stream(self, doc: str):
        return self.engine.stream(doc)

    def oracle(self, doc: str) -> set:
        return inputs.equal_pairs(doc)

    def reference(self, doc: str) -> list:
        # The explicit Theorem 5.4 A_eq construction.
        evaluator = CompiledEvaluator(materialize_equalities=True)
        return list(evaluator.stream(self.query, doc))

    def states(self) -> int:
        return estimate_compile_states(self.engine)

    def pipeline(self, doc: str, layers: Layers) -> list:
        # CompiledEqualityQuery.evaluator, one public call per layer.
        t0 = perf_counter_ns()
        index = SubstringIndex(doc)
        t1 = perf_counter_ns()
        automaton = self.engine.compile_for(doc, index=index)
        t2 = perf_counter_ns()
        tables = AutomatonTables(automaton)
        t3 = perf_counter_ns()
        graph = build_evaluation_graph(automaton, doc, tables=tables)
        t4 = perf_counter_ns()
        layers.add_ns("substrings", t1 - t0)
        layers.add_ns("equality", t2 - t1)
        layers.add_ns("tables", t3 - t2)
        layers.add_ns("graph", t4 - t3)
        layers.add("equality.states", automaton.n_states)
        return enumerate_graph(graph, layers)


def stream_timed_run(workload: StreamWorkload, seconds: float) -> dict:
    setup_s = scaled_seconds(workload.setup)
    run = workload.loop(seconds, keep=workload.reference_docs)
    # Read the high-water mark before the reference pass: the explicit
    # A_eq reference is far larger than anything the engine builds.
    rss = max_rss_mb(resource.RUSAGE_SELF)
    failed = run["failed"]
    errors = run["errors"]
    for i, (doc, out) in enumerate(run["kept"]):
        if out != workload.reference(doc):
            failed += 1
            errors.append(f"{workload.name}: checked document {i} differs "
                          "from the exact-order reference")
    metrics = run["windows"].summary()
    metrics["peak_rss_mb"] = rss
    return {
        "attempted": run["attempted"],
        "failed": failed,
        "errors": errors[:5],
        "setup_s": setup_s,
        "env": environment("in-process", run["calibration_us"]),
        "metrics": metrics,
    }


def stream_traced_run(workload: StreamWorkload, seconds: float) -> dict:
    t0 = perf_counter_ns()
    workload.setup()
    compile_ns = perf_counter_ns() - t0
    layers = Layers()
    attempted = failed = 0
    errors: list[str] = []
    untraced_s = traced_s = 0.0
    # Each document goes through the untraced stream and the traced
    # pipeline back to back, so both see the same machine conditions; the
    # order alternates so neither always runs on the other's warm caches.
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        doc = workload.docs[attempted % len(workload.docs)]
        attempted += 1
        for traced in (False, True) if attempted % 2 else (True, False):
            start = perf_counter()
            if traced:
                out = workload.pipeline(doc, layers)
                traced_s += perf_counter() - start
            else:
                expected = list(workload.stream(doc))
                untraced_s += perf_counter() - start
        layers.add("docs", 1)
        if out != expected or inputs.as_set(out) != workload.oracle(doc):
            failed += 1
            errors.append(f"{workload.name}: traced pipeline differs from "
                          "the untraced stream or the oracle on document "
                          f"{attempted - 1}")
    metrics = layer_metrics(
        layers,
        compile_ms=compile_ns / 1e6,
        compile_states=workload.states(),
        overhead=1.0 - untraced_s / traced_s,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "env": environment("in-process"),
        "metrics": metrics,
    }


def layer_metrics(
    layers: Layers,
    *,
    compile_ms: float,
    compile_states: int,
    overhead: float,
    service: dict | None = None,
) -> dict:
    """Every per-layer metric; layers a workload bypasses read 0."""
    metrics = {
        "compile.ms": compile_ms,
        "compile.states": compile_states,
        "cache.hit_ratio": cache_hit_ratio(),
        "tables.ms_per_doc": layers.per("tables", 1e6, "docs"),
        "graph.ms_per_doc": layers.per("graph", 1e6, "docs"),
        "graph.nodes_per_doc": layers.count_per("graph.nodes", "docs"),
        "graph.edges_per_doc": layers.count_per("graph.edges", "docs"),
        "graph.live_node_ratio": layers.count_per("graph.live", "graph.nodes"),
        "enumerate.us_per_tuple": layers.per("enumerate", 1e3, "tuples"),
        "decode.us_per_tuple": layers.per("decode", 1e3, "tuples"),
        "substrings.ms_per_doc": layers.per("substrings", 1e6, "docs"),
        "equality.ms_per_doc": layers.per("equality", 1e6, "docs"),
        "equality.states_per_doc": layers.count_per(
            "equality.states", "docs"
        ),
        "fusion.ms_per_batch": layers.per("fusion", 1e6, "batches"),
        "service.submit_ms": 0.0,
        "service.wait_ms": 0.0,
        "service.engine_share": 0.0,
        "service.tasks": 0,
        "service.retries": 0,
        "backend.worker_restarts": 0,
        "backend.task_skew": 0.0,
        "transport.doc_bytes": 0.0,
        "transport.result_bytes": 0.0,
        "transport.degraded_to_pipe": 0,
        "trace.overhead": overhead,
    }
    if service:
        metrics.update(service)
    return metrics


# -- serve-logs: the resident fleet ----------------------------------------


def serve_queries() -> list:
    """The registered query set: E13 dictionary, capitalized words, codes."""
    return [
        dictionary_spanner(inputs.DICTIONARY),
        capitalized_spanner(),
        CODE_FORMULA,
    ]


class ServeLogs:
    name = "serve-logs"

    def __init__(self, seed: int):
        self.batches = [
            inputs.serve_batches(seed, c) for c in range(SERVE_CLIENTS)
        ]
        self.service: SpannerService | None = None

    def setup(self, queries: list) -> None:
        """Fleet start, ``register`` of every query, one warm batch."""
        self.service = SpannerService(
            workers=SERVE_WORKERS,
            backend="process",
            mp_context=START_METHOD,
            # Batches are ~2 KiB, far under the shared-memory threshold,
            # so "auto" would pick the pipe too; pinning it keeps runs off
            # /dev/shm.
            transport="pipe",
        )
        self.service.start()
        self.ids = [self.service.register(q) for q in queries]
        futures = self.service.submit_all(self.batches[0][0], queries=self.ids)
        for qid in self.ids:
            futures[qid].result()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def compute_references(self) -> list[str]:
        """Each query's serial ``evaluate_many`` over every pooled batch.

        The serial results are checked against the independent oracles:
        a batch whose reference disagrees fails every request that sends
        it.  Returns a message for each disagreeing document.
        """
        spanners = [CompiledSpanner(q) for q in serve_queries()]
        self.references = [
            [[list(sp.evaluate_many(batch)) for sp in spanners] for batch in pool]
            for pool in self.batches
        ]
        self.ref_tuples = [
            [sum(len(doc) for per_q in ref for doc in per_q) for ref in pool]
            for pool in self.references
        ]
        errors = []
        self.ref_ok = [[True] * len(pool) for pool in self.batches]
        for c, pool in enumerate(self.batches):
            for k, batch in enumerate(pool):
                for q, oracle in enumerate(inputs.SERVE_ORACLES):
                    for d, doc in enumerate(batch):
                        if inputs.as_set(self.references[c][k][q][d]) != oracle(doc):
                            self.ref_ok[c][k] = False
                            errors.append(
                                f"serve-logs: serial query {q} disagrees with "
                                f"its oracle on client {c} batch {k} doc {d}"
                            )
        return errors

    def loop(self, seconds: float, trace: bool = False) -> dict:
        """Every client sends batches back to back, slice by slice.

        At the end of each slice the clients finish their request in
        flight and wait while the machine's speed is calibrated, so the
        calibration runs with the fleet idle.  With ``trace`` the odd
        slices are traced: each request's submit and wait split and its
        document and pickled result sizes are recorded.
        """
        n_slices = slice_count(seconds)
        windows = Windows(n_slices)
        speed = SpeedScale()
        start_line = threading.Barrier(SERVE_CLIENTS + 1,
                                       timeout=BARRIER_TIMEOUT_S)
        finish_line = threading.Barrier(SERVE_CLIENTS + 1,
                                        timeout=BARRIER_TIMEOUT_S)
        state = {"end": 0.0, "stop": False, "traced": False}
        parts = [Slice() for _ in range(SERVE_CLIENTS)]
        per_client = [
            {"traced": [], "attempted": 0, "failed": 0, "errors": []}
            for _ in range(SERVE_CLIENTS)
        ]

        def client(c: int) -> None:
            rec = per_client[c]
            pool = self.batches[c]
            service = self.service
            ids = self.ids
            i = 0
            try:
                while True:
                    start_line.wait()
                    if state["stop"]:
                        return
                    part = parts[c]
                    while perf_counter() < state["end"]:
                        k = i % len(pool)
                        i += 1
                        rec["attempted"] += 1
                        try:
                            t0 = perf_counter()
                            futures = service.submit_all(pool[k], queries=ids)
                            t1 = perf_counter()
                            results = [futures[qid].result() for qid in ids]
                            t2 = perf_counter()
                        except Exception:
                            rec["failed"] += 1
                            rec["errors"].append(traceback.format_exc(limit=3))
                            continue
                        if (results != self.references[c][k]
                                or not self.ref_ok[c][k]):
                            rec["failed"] += 1
                            rec["errors"].append(
                                f"serve-logs: client {c} batch {k} differs "
                                "from serial evaluate_many or from the oracle"
                            )
                        n_tuples = self.ref_tuples[c][k]
                        part.docs += len(pool[k])
                        part.tuples += n_tuples
                        part.latency.add(t2 - t0)
                        # The fleet returns a batch at once, so no gap
                        # between its tuples can be observed: this is the
                        # batch latency over the batch's tuples.
                        part.delay.add((t2 - t0) * 1e6 / max(n_tuples, 1))
                        if state["traced"]:
                            rec["traced"].append((
                                t1 - t0,
                                t2 - t1,
                                sum(len(d.encode()) for d in pool[k]),
                                len(pickle.dumps(
                                    results, protocol=pickle.HIGHEST_PROTOCOL
                                )),
                            ))
                    finish_line.wait()
            except threading.BrokenBarrierError:
                return  # the pacer gave up on the run

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        # Per slice: traced, requests, documents and wall seconds.
        slices: list[tuple[bool, int, int, float]] = []
        try:
            for k in range(n_slices):
                parts[:] = [Slice() for _ in range(SERVE_CLIENTS)]
                state["traced"] = trace and k % 2 == 1
                t0 = perf_counter()
                state["end"] = t0 + SLICE_S
                start_line.wait()
                finish_line.wait()
                wall = perf_counter() - t0
                part = Slice()
                for p in parts:
                    part.absorb(p)
                part.time = wall
                windows.add(k, part, speed.close_slice())
                slices.append((state["traced"], part.latency.n, part.docs, wall))
            state["stop"] = True
            start_line.wait()
        finally:
            start_line.abort()
            finish_line.abort()
            for t in threads:
                t.join()
        return {
            "windows": windows,
            "slices": slices,
            "calibration_us": speed.calibration_us(),
            "traced": [v for r in per_client for v in r["traced"]],
            "errors": [v for r in per_client for v in r["errors"]],
            "attempted": sum(r["attempted"] for r in per_client),
            "failed": sum(r["failed"] for r in per_client),
        }


def serve_timed_run(seed: int, seconds: float) -> dict:
    workload = ServeLogs(seed)
    try:
        setup_s = scaled_seconds(lambda: workload.setup(serve_queries()))
        # After the set-up, which must run cold: the references compile
        # the same queries in this interpreter.
        ref_errors = workload.compute_references()
        run = workload.loop(seconds)
        backend = workload.service.backend
        health = workload.service.health()
    finally:
        workload.close()
    main_rss = max_rss_mb(resource.RUSAGE_SELF)
    # Workers have been joined by close(): RUSAGE_CHILDREN now holds the
    # largest one's peak (the heartbeat samples are a fallback).
    sampled = [
        v for v in health["resources"]["worker_rss_bytes"].values() if v
    ]
    worker_rss = max(
        [max_rss_mb(resource.RUSAGE_CHILDREN)]
        + [v / 2**20 for v in sampled]
    )
    metrics = run["windows"].summary()
    metrics["peak_rss_mb"] = main_rss + worker_rss
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "errors": (ref_errors + run["errors"])[:5],
        "setup_s": setup_s,
        "env": environment(backend, run["calibration_us"]),
        "metrics": metrics,
    }


def serve_traced_run(seed: int, seconds: float) -> dict:
    workload = ServeLogs(seed)
    t0 = perf_counter_ns()
    spanners = [CompiledSpanner(q) for q in serve_queries()]
    compile_ns = perf_counter_ns() - t0
    ref_errors = workload.compute_references()
    try:
        workload.setup(spanners)
        run = workload.loop(seconds, trace=True)
        backend = workload.service.backend
        health = workload.service.health()
    finally:
        workload.close()
    attempted = run["attempted"]
    failed = run["failed"]
    errors = ref_errors + run["errors"]

    # In-process replay of the fused engine the workers run, over the
    # first client's first batches, then the same batches once more
    # through its decomposed layers (sweep, enumerate, decode).
    fused = FusedQuery(list(zip(workload.ids, (s.tables for s in spanners))))
    engine = fused.materialize()
    order = [workload.ids.index(qid) for qid in fused.member_ids]
    cohorts = plan_cohorts(fused.members)
    if any(not kind.startswith("sweep") for kind, _ in cohorts):
        raise RuntimeError("serve-logs queries must all join the fused sweep")
    layers = Layers()
    pool = workload.batches[0]
    for k in range(REPLAY_BATCHES):
        batch = pool[k % len(pool)]
        expected = workload.references[0][k % len(pool)]
        t0 = perf_counter_ns()
        replay = [[list(it) for it in engine.streams(doc)] for doc in batch]
        layers.add_ns("fusion", perf_counter_ns() - t0)
        layers.add("batches", 1)
        for d, doc in enumerate(batch):
            attempted += 1
            per_member: dict[int, list] = {}
            t0 = perf_counter_ns()
            graphs = {}
            for _kind, entries in cohorts:
                graphs.update(fused_sweep(entries, doc))
            layers.add_ns("graph", perf_counter_ns() - t0)
            layers.add("docs", 1)
            for member, graph in sorted(graphs.items()):
                per_member[member] = enumerate_graph(graph, layers)
            for m, q in enumerate(order):
                want = expected[q][d]
                if replay[d][m] != want or per_member[m] != want:
                    failed += 1
                    errors.append(
                        f"serve-logs: replay of batch {k} document {d} "
                        f"differs for query {q}"
                    )
    # Requests, documents and wall seconds of the untraced (even) and
    # traced (odd) slices; slice_count() makes at least one of each.
    def totals(traced: bool) -> list:
        rows = [s[1:] for s in run["slices"] if s[0] == traced]
        return [sum(column) for column in zip(*rows)]

    untraced_batches, untraced_docs, untraced_s = totals(False)
    traced_batches, traced_docs, traced_s = totals(True)
    if not run["traced"]:
        raise RuntimeError("no request of a traced slice completed")
    submit, wait, doc_bytes, result_bytes = zip(*run["traced"])
    engine_s = layers.per("fusion", 1e9, "batches")
    counters = health["counters"]
    assigned = [w["tasks_assigned"] for w in health["workers"]]
    total_batches = untraced_batches + traced_batches + 1  # + warm batch
    service = {
        "service.submit_ms": p50(list(submit)) * 1e3,
        "service.wait_ms": p50(list(wait)) * 1e3,
        "service.engine_share": (
            engine_s * untraced_batches / (SERVE_WORKERS * untraced_s)
        ),
        "service.tasks": counters["tasks_completed"] / total_batches,
        "service.retries": counters["tasks_retried"],
        "backend.worker_restarts": counters["worker_restarts"],
        "backend.task_skew": max(assigned) / max(min(assigned), 1),
        "transport.doc_bytes": statistics.mean(doc_bytes),
        "transport.result_bytes": statistics.mean(result_bytes),
        "transport.degraded_to_pipe": (
            health["resources"]["degraded_to_pipe"]
        ),
    }
    metrics = layer_metrics(
        layers,
        compile_ms=compile_ns / 1e6,
        compile_states=sum(estimate_compile_states(s) for s in spanners),
        overhead=1.0 - (traced_docs / traced_s) / (untraced_docs / untraced_s),
        service=service,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "env": environment(backend),
        "metrics": metrics,
    }


# -- Entry points (one per session mode) -----------------------------------

STREAM_WORKLOADS = {"dense-logs": DenseLogs, "equality-cq": EqualityCQ}


def setup_only(workload: str, seed: int) -> dict:
    """One cold set-up in this (fresh) interpreter, then teardown."""
    if workload == "serve-logs":
        serve = ServeLogs(seed)
        try:
            setup_s = scaled_seconds(lambda: serve.setup(serve_queries()))
        finally:
            serve.close()
        return {"setup_s": setup_s}
    stream = STREAM_WORKLOADS[workload](seed)
    setup_s = scaled_seconds(stream.setup)
    return {"setup_s": setup_s}


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    if workload == "serve-logs":
        return serve_timed_run(seed, seconds)
    return stream_timed_run(STREAM_WORKLOADS[workload](seed), seconds)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    if workload == "serve-logs":
        return serve_traced_run(seed, seconds)
    return stream_traced_run(STREAM_WORKLOADS[workload](seed), seconds)
