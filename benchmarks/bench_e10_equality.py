"""E10 — Theorem 5.4 / Corollary 5.5: string equalities at runtime.

Claims reproduced:

* ``A_eq`` is built *per input string* (it must be: string equality is
  not expressible by regular spanners) with ``O(N^{3m+1})``-style size —
  we report the measured automaton size vs N for one binary group;
* for fixed m, evaluation of a k-CQ with m equality groups retains
  polynomial delay — measured via the compiled evaluator;
* the canonical path (Corollary 5.3) materializes the equality
  relation (O(N^3) rows for the binary case) and stays polynomial.

Engineering claims on top (the fused equality runtime):

* fusing the product construction with an *implicit* ``A_eq``
  (:func:`repro.runtime.equality.equality_join`) beats materializing
  the ``O(N^4)``-state automaton by >= 3x at N >= 80 — byte-identical
  span relations asserted (E10d);
* equality workloads shard: a :class:`CompiledEqualityQuery` shipped
  through :class:`ParallelSpanner` scales docs/sec with workers while
  reproducing the serial output exactly (E10e);
* where a document's time goes (E10f): the production path walks the
  levels of the fused product straight from its BFS record (product
  BFS, level build, walk), against the reference path that compiles
  the product to an automaton and runs the cold Theorem 3.3 evaluator
  on it (``compile_for``, ``AutomatonTables``, forward, live, walk) —
  what ``SpannerEvaluator(engine.compile_for(s), s)`` runs.
"""

from __future__ import annotations

import time
from time import perf_counter_ns

from repro.enumeration.enumerator import SpannerEvaluator, walk_tuples
from repro.enumeration.instrumentation import measure_generator_delays
from repro.enumeration.statesets import StateSetLevels
from repro.queries import CanonicalEvaluator, CompiledEvaluator, RegexCQ
from repro.runtime import AutomatonTables, ParallelSpanner
from repro.runtime.cache import LRUCache
from repro.runtime.equality import (
    CompiledEqualityQuery,
    EqualityLevels,
    EqualityProduct,
)
from repro.text import SubstringIndex, repeats_text
from repro.vset import equality_automaton

from .common import Table, available_cpus, fit_loglog_slope, time_call


def _dedup_query(m: int = 1) -> RegexCQ:
    if m == 1:
        return RegexCQ(
            ["x", "y"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
            equalities=[("x", "y")],
        )
    return RegexCQ(
        ["x", "y", "z"],
        [".*x{[ab]+}.*", ".*y{[ab]+}.*", ".*z{[ab]+}.*"],
        equalities=[("x", "y"), ("y", "z")],
    )


def _wide_dedup_query() -> RegexCQ:
    """The fused-vs-materialized workload: dedup over an 8-char alphabet.

    A wider alphabet keeps the equal-substring choice count (and with
    it the materializing baseline) polynomially bounded enough to run
    at N = 80, which is where the acceptance bar sits.
    """
    return RegexCQ(
        ["x", "y"],
        [".*x{[a-h]+}.*", ".*y{[a-h]+}.*"],
        equalities=[("x", "y")],
    )


def _wide_text(n: int, seed: int) -> str:
    return repeats_text(n, seed=seed, alphabet="abcdefgh", plant="abc")


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def run() -> list[Table]:
    sizes = Table(
        "E10a  A_eq size vs N (binary group; Theorem 5.4)",
        ["N", "A_eq states", "build time (s)"],
    )
    lengths, states = [], []
    for n in (4, 6, 8, 10, 12):
        s = repeats_text(n, seed=1)
        elapsed = time_call(lambda t=s: equality_automaton(t, ("x", "y")))
        automaton = equality_automaton(s, ("x", "y"))
        lengths.append(n)
        states.append(automaton.n_states)
        sizes.add(n, automaton.n_states, elapsed)
    sizes.note(
        f"state slope vs N: {fit_loglog_slope(lengths, states):.2f} "
        "(construction: O(N^4) for one binary group)"
    )

    strategies = Table(
        "E10b  dedup CQ with one equality: canonical vs compiled",
        ["N", "answers", "canonical (s)", "compiled (s)", "compiled max delay"],
    )
    canonical = CanonicalEvaluator()
    compiled = CompiledEvaluator()
    query = _dedup_query(1)
    for n in (4, 6, 8, 10):
        s = repeats_text(n, seed=2)
        can_time = time_call(lambda t=s: canonical.evaluate(query, t))
        answers = canonical.evaluate(query, s)
        report = measure_generator_delays(
            lambda t=s: compiled.stream(query, t)
        )
        strategies.add(
            n,
            len(answers),
            can_time,
            report.preprocessing_seconds + sum(report.delays),
            report.max_delay,
        )
        assert len(answers) == report.count
    strategies.note(
        "canonical materializes the O(N^3) equality relation "
        "(Corollary 5.3); compiled runs the fused equality join "
        "(Theorem 5.4 with an implicit A_eq)"
    )

    two_groups = Table(
        "E10c  two equality groups (m=2, Corollary 5.5)",
        ["N", "answers", "canonical (s)"],
    )
    query2 = _dedup_query(2)
    for n in (4, 6, 8):
        s = repeats_text(n, seed=3)
        elapsed = time_call(lambda t=s: canonical.evaluate(query2, t))
        answers = canonical.evaluate(query2, s)
        two_groups.add(n, len(answers), elapsed)

    fused_table = Table(
        "E10d  fused equality join vs materialized A_eq "
        "(dedup CQ, 8-char alphabet)",
        ["N", "answers", "materialized (s)", "fused (s)", "speedup"],
    )
    wide = _wide_dedup_query()
    fused_ev = CompiledEvaluator(LRUCache(32))
    mat_ev = CompiledEvaluator(LRUCache(32), materialize_equalities=True)
    fused_ev.compile_static(wide)  # warm the shared static fold
    mat_ev.compile_static(wide)
    for n in (20, 40, 80):
        s = _wide_text(n, seed=5)
        mat_s, mat_rel = _timed(lambda t=s: mat_ev.evaluate(wide, t))
        fus_s, fus_rel = _timed(lambda t=s: fused_ev.evaluate(wide, t))
        assert fus_rel == mat_rel, "fused relation diverged at N=%d" % n
        fused_table.add(n, len(fus_rel), mat_s, fus_s, mat_s / fus_s)
    fused_table.note(
        "identical span relations asserted per N; the fused product is "
        "driven off the static operand's cached tables with an implicit "
        "A_eq — target >= 3x at N >= 80"
    )

    eq_scaling = Table(
        "E10e  equality-workload sharding (CompiledEqualityQuery via "
        "ParallelSpanner): scaling vs the serial fused path",
        ["workers", "docs", "wall (s)", "docs/s", "speedup"],
    )
    engine = fused_ev.equality_runtime(wide)
    docs = [_wide_text(32, seed=100 + i) for i in range(48)]
    list(engine.stream(docs[0]))  # warm the per-process caches
    serial_s, serial_out = _timed(lambda: list(engine.evaluate_many(docs)))
    eq_scaling.add(1, len(docs), serial_s, len(docs) / serial_s, 1.0)
    for workers in (2, 4):
        with ParallelSpanner(engine, workers=workers, chunk_size=4) as pool:
            par_s, par_out = _timed(lambda: list(pool.evaluate_many(docs)))
        assert par_out == serial_out, (
            f"equality shard diverged from serial at {workers} workers"
        )
        eq_scaling.add(
            workers, len(docs), par_s, len(docs) / par_s, serial_s / par_s
        )
    eq_scaling.note(
        f"identical tuple sequences asserted per worker count; "
        f"{available_cpus()} cpu(s) available — per-document work is the "
        "fused join, so sharding pays off on far smaller corpora than "
        "the equality-free path needs"
    )

    return [sizes, strategies, two_groups, fused_table, eq_scaling, stage_table()]


# ---------------------------------------------------------------------------
# E10f: per-document stage times, level source vs reference pipeline
# ---------------------------------------------------------------------------

#: E10f documents (the equality-cq shape: 32 characters over a-h with a
#: planted repeat) and timed passes over them (best kept).
STAGE_DOCS = 16
STAGE_LENGTH = 32
STAGE_REPEATS = 3


def stage_documents() -> list[str]:
    return [_wide_text(STAGE_LENGTH, seed=200 + i) for i in range(STAGE_DOCS)]


#: Stage names per path, in the order the stage functions time them.
LEVEL_STAGES = ("product BFS", "level build", "walk")
REFERENCE_STAGES = ("compile_for", "AutomatonTables", "forward", "live", "walk")


def _level_stages(engine: CompiledEqualityQuery, s: str) -> tuple[list[int], int]:
    """ns per :data:`LEVEL_STAGES` stage, and the tuple count."""
    ((tables, (group,)),) = engine.disjuncts
    t0 = perf_counter_ns()
    product = EqualityProduct(tables, group, s, SubstringIndex(s))
    t1 = perf_counter_ns()
    levels = EqualityLevels([product], engine.head, len(s) + 1)
    t2 = perf_counter_ns()
    n = sum(1 for _ in walk_tuples(levels))
    return [t1 - t0, t2 - t1, perf_counter_ns() - t2], n


def _reference_stages(
    engine: CompiledEqualityQuery, s: str
) -> tuple[list[int], int]:
    """ns per :data:`REFERENCE_STAGES` stage, and the tuple count."""
    t0 = perf_counter_ns()
    automaton = engine.compile_for(s)
    t1 = perf_counter_ns()
    tables = AutomatonTables(automaton)
    t2 = perf_counter_ns()
    levels = StateSetLevels(tables, s)
    t3 = perf_counter_ns()
    if not levels.is_empty:
        levels.live_pass()
    t4 = perf_counter_ns()
    n = sum(1 for _ in walk_tuples(levels))
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, perf_counter_ns() - t4], n


def stage_rows() -> list[tuple[str, str, float]]:
    """``(path, stage, ms per document)``, each path closed by its total.

    Every document runs once untimed first (the skeleton memo and the
    static operand's views are then warm, as in a stream); each path
    keeps its best of :data:`STAGE_REPEATS` passes.  Raises when the
    paths disagree on any document's tuples.
    """
    engine = CompiledEvaluator(LRUCache(8)).equality_runtime(_wide_dedup_query())
    docs = stage_documents()
    for s in docs:
        reference = SpannerEvaluator(engine.compile_for(s), s)
        if list(engine.stream(s)) != list(reference):
            raise AssertionError(f"E10f: the paths disagree on {s!r}")
    rows = []
    for path, stages, names in (
        ("levels", _level_stages, LEVEL_STAGES),
        ("reference", _reference_stages, REFERENCE_STAGES),
    ):
        best: list[int] | None = None
        for _ in range(STAGE_REPEATS):
            totals = [0] * len(names)
            for s in docs:
                times, _n = stages(engine, s)
                totals = [a + b for a, b in zip(totals, times)]
            if best is None or sum(totals) < sum(best):
                best = totals
        ms = [ns / 1e6 / len(docs) for ns in best]
        rows.extend((path, name, value) for name, value in zip(names, ms))
        rows.append((path, "total", sum(ms)))
    return rows


def stage_table() -> Table:
    table = Table(
        "E10f  per-document stage times on equality-cq documents: "
        "level source vs reference pipeline",
        ["path", "stage", "ms/doc"],
    )
    rows = stage_rows()
    for row in rows:
        table.add(*row)
    totals = {path: ms for path, stage, ms in rows if stage == "total"}
    table.note(
        f"total {totals['reference']:.2f} -> {totals['levels']:.2f} ms/doc "
        f"({totals['reference'] / totals['levels']:.1f}x), "
        f"{STAGE_DOCS} documents of {STAGE_LENGTH} characters"
    )
    table.note(
        "levels: the production path (CompiledEqualityQuery.stream) — "
        "the product BFS record turned straight into the walk's levels; "
        "reference: compile_for (the same BFS, then the product "
        "automaton, trim and projection), then what a cold "
        "SpannerEvaluator runs on it: one-off AutomatonTables and the "
        "forward, live and walk passes over their state sets"
    )
    return table


def test_e10_equality_automaton_build(benchmark):
    s = repeats_text(8, seed=1)
    automaton = benchmark(lambda: equality_automaton(s, ("x", "y")))
    assert automaton.n_states > 0


def test_e10_strategies_agree(benchmark):
    s = repeats_text(6, seed=2)
    query = _dedup_query(1)
    canonical = CanonicalEvaluator()
    compiled = CompiledEvaluator()
    result = benchmark(lambda: canonical.evaluate(query, s))
    assert result == compiled.evaluate(query, s)


def test_e10_fused_matches_materialized():
    """CI smoke: fused and materialized equality paths agree exactly.

    Byte-identical per document: tuples, radix order, and the rendered
    form all have to match — across k=2 and k=3 (merged) groups.
    """
    fused = CompiledEvaluator(LRUCache(32))
    materializing = CompiledEvaluator(
        LRUCache(32), materialize_equalities=True
    )
    for query in (_dedup_query(1), _dedup_query(2)):
        for seed in (2, 7):
            for n in (6, 10):
                s = repeats_text(n, seed=seed)
                fus = list(fused.stream(query, s))
                mat = list(materializing.stream(query, s))
                assert fus == mat, (query, s)

    def canonical_bytes(tuples: list) -> bytes:
        lines = [
            " ".join(f"{v}={t[v]}" for v in sorted(t.variables))
            for t in tuples
        ]
        return "\n".join(lines).encode()

    wide = _wide_dedup_query()
    s = _wide_text(24, seed=11)
    assert canonical_bytes(list(fused.stream(wide, s))) == canonical_bytes(
        list(materializing.stream(wide, s))
    )


def test_e10_equality_parallel_two_workers_identical():
    """CI smoke: a 2-worker equality shard must reproduce serial output.

    The CompiledEqualityQuery artifact rides the worker-initializer
    path; every worker runs the fused per-document equality join
    locally.  Byte-identical output asserted, no timing bound.
    """
    evaluator = CompiledEvaluator(LRUCache(32))
    engine = evaluator.equality_runtime(_wide_dedup_query())
    docs = [_wide_text(20, seed=50 + i) for i in range(20)]
    serial = list(engine.evaluate_many(docs))
    with ParallelSpanner(engine, workers=2, chunk_size=4) as pool:
        parallel = list(pool.evaluate_many(docs))
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


def test_e10f_stage_paths_agree():
    """The E10f decomposition: both paths yield the same tuples."""
    engine = CompiledEvaluator(LRUCache(8)).equality_runtime(_wide_dedup_query())
    for s in stage_documents()[:4]:
        level_n = _level_stages(engine, s)[1]
        reference_n = _reference_stages(engine, s)[1]
        assert level_n == reference_n == len(list(engine.stream(s))) > 0


def test_e10_fused_speedup():
    """Acceptance: >= 3x over the materializing path at N = 80.

    One timed pass per path (the materialized side alone runs for tens
    of seconds — repetition would be all cost, no signal), identical
    span relations asserted.  The measured margin is ~two orders of
    magnitude, so single-pass noise cannot flip a 3x verdict.
    """
    wide = _wide_dedup_query()
    fused_ev = CompiledEvaluator(LRUCache(32))
    mat_ev = CompiledEvaluator(LRUCache(32), materialize_equalities=True)
    fused_ev.compile_static(wide)
    mat_ev.compile_static(wide)
    s = _wide_text(80, seed=5)
    mat_s, mat_rel = _timed(lambda: mat_ev.evaluate(wide, s))
    fus_s, fus_rel = _timed(lambda: fused_ev.evaluate(wide, s))
    assert fus_rel == mat_rel
    speedup = mat_s / fus_s
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x target"
