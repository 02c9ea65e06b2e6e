"""E1 — Theorem 3.3: polynomial-delay enumeration.

Claim: after ``O(n^2 |s| + mn)`` preprocessing, consecutive answers of
``[[A]](s)`` arrive with delay ``O(n^2 |s|)``.

Series reproduced:

* max/mean per-answer delay and preprocessing time as ``N = |s|`` grows
  with the automaton fixed (claim: both polynomial in N; fitted log-log
  slope of max delay vs N should stay well below cubic);
* the same as ``n`` (state count) grows with N fixed, via the union-of-
  identical-branches construction that preserves the answer set;
* delay must *not* grow with the answer count beyond these bounds —
  the point of enumeration complexity;
* E1c: on tuple-dense documents (``.*x{[0-9]+}.*`` over repeated log
  lines) the typical per-tuple delay stays flat as ``|s|`` grows — the
  enumerator walks each forced stretch of ``A_G`` once per document
  and decodes from event positions, so the amortized delay depends on
  the automaton, not on ``|s|`` (the worst single gap is still
  ``O(n^2 |s|)``).  Gated on both paths: the cold ``SpannerEvaluator``
  (state sets on one-off tables) and ``CompiledSpanner.stream`` (state
  sets on tables whose memos serve every document);
* E1d: where a document's time goes on each path, per stage — the
  table build, forward, live and walk passes, and the decode of the
  walk's words into tuples — on the dense-logs shape and on the
  serve-logs shape (three extractors over ~44-char log lines), with the
  walk's steps per document beside them;
* E1e: walk steps track tuples, not ``|s|``: a dense document's tuple
  count stays fixed while digit-free padding doubles, then quadruples,
  ``|s|``.  Gated on both paths, whose walk jumps the silent stretches
  of the all-``WAITING`` word and ends every word at its all-``CLOSED``
  letter (steps may grow < 10%).

A walk *step* is one children lookup (a memo read or a ``children()``
call) or one jump.  :class:`CountingLevels` counts them from outside
the walk, by wrapping its level source.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from repro.enumeration import SpannerEvaluator, measure_delays
from repro.enumeration.enumerator import event_tuples, walk_tuples
from repro.enumeration.instrumentation import measure_generator_delays
from repro.enumeration.statesets import StateSetLevels
from repro.extractors import capitalized_spanner, dictionary_spanner
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.text import log_lines, unary_text
from repro.vset import compile_regex

from .bench_e13_runtime import DICTIONARY
from .common import Table, fit_loglog_slope, grown_automaton

BASE_PATTERN = "a*x{a*}a*"

#: E1c: every digit run of a log line yields a tuple per sub-run.
DENSE_PATTERN = ".*x{[0-9]+}.*"
DENSE_LINE_COUNTS = (8, 16, 32, 64)
#: The block of log lines E1c repeats to grow ``|s|``.
DENSE_BLOCK_LINES = 8


def dense_document(n_lines: int) -> str:
    """``n_lines`` log lines: one fixed block repeated, so density is flat."""
    block = log_lines(DENSE_BLOCK_LINES, seed=0)
    return "\n".join([block] * (n_lines // DENSE_BLOCK_LINES))


def dense_delay_rows(
    compiled: bool = False,
) -> list[tuple[int, int, float, float]]:
    """``(|s|, answers, p50 delay, mean delay)`` per E1c document.

    ``compiled`` streams through one ``CompiledSpanner`` (state sets,
    memos kept across documents) instead of a cold ``SpannerEvaluator``
    per run (state sets on one-off tables).  Delays exclude the first
    tuple (its gap is the enumeration's start, not a between-tuple
    delay); each document keeps the run with the lowest p50 of three
    to damp scheduler noise.
    """
    automaton = compile_regex(DENSE_PATTERN)
    spanner = CompiledSpanner(automaton) if compiled else None
    rows = []
    for n_lines in DENSE_LINE_COUNTS:
        s = dense_document(n_lines)
        best = None
        for _ in range(3):
            if compiled:
                report = measure_generator_delays(lambda: spanner.stream(s))
            else:
                report = measure_delays(automaton, s)
            gaps = report.delays[1:]
            row = (len(s), len(gaps) + 1, statistics.median(gaps),
                   statistics.fmean(gaps))
            if best is None or row[2] < best[2]:
                best = row
        rows.append(best)
    return rows


class _CountingMemo:
    __slots__ = ("levels", "memo")

    def __init__(self, levels: "CountingLevels", memo: dict):
        self.levels = levels
        self.memo = memo

    def get(self, states):
        self.levels.steps += 1
        return self.memo.get(states)


class CountingLevels:
    """A level source that counts the walk's steps on the one it wraps.

    Every children-memo read, ``children()`` call and jump the walk asks
    of the wrapped source adds one to :attr:`steps`.
    """

    def __init__(self, source):
        self.source = source
        self.steps = 0
        self.root = source.root
        self.n_slots = source.n_slots
        self.variables = source.variables
        self.is_empty = source.is_empty

    def children_memos(self) -> list[_CountingMemo]:
        return [
            _CountingMemo(self, memo) for memo in self.source.children_memos()
        ]

    def children(self, states, level: int):
        self.steps += 1
        return self.source.children(states, level)

    def jumps(self):
        jumps = self.source.jumps()
        self.steps += len(jumps)
        return jumps


def walk_steps(levels) -> tuple[int, int]:
    """``(steps, tuples)`` of one full walk over ``levels``."""
    counting = CountingLevels(levels)
    tuples = sum(1 for _ in walk_tuples(counting))
    return counting.steps, tuples


def run() -> list[Table]:
    automaton = compile_regex(BASE_PATTERN).compacted()

    sweep_n_string = Table(
        "E1a  delay vs |s|  (automaton fixed: a*x{a*}a*)",
        ["N", "answers", "prep (s)", "max delay (s)", "mean delay (s)"],
    )
    lengths = [20, 40, 80, 160, 320]
    max_delays = []
    for n in lengths:
        report = measure_delays(automaton, unary_text(n))
        max_delays.append(report.max_delay)
        sweep_n_string.add(
            n,
            report.count,
            report.preprocessing_seconds,
            report.max_delay,
            report.mean_delay,
        )
    slope = fit_loglog_slope(lengths, max_delays)
    sweep_n_string.note(
        f"fitted max-delay slope vs N: {slope:.2f} "
        "(claim: polynomial, O(n^2 N) with n fixed => slope <= ~1 + noise)"
    )

    sweep_states = Table(
        "E1b  delay vs n  (|s| fixed at 60; union of identical branches)",
        ["branches", "states n", "answers", "prep (s)", "max delay (s)"],
    )
    s = unary_text(60)
    copies_list = [1, 2, 4, 8, 16]
    state_counts = []
    delays = []
    for copies in copies_list:
        grown = grown_automaton(BASE_PATTERN, copies)
        report = measure_delays(grown, s)
        state_counts.append(grown.n_states)
        delays.append(report.max_delay)
        sweep_states.add(
            copies,
            grown.n_states,
            report.count,
            report.preprocessing_seconds,
            report.max_delay,
        )
    slope_n = fit_loglog_slope(state_counts, delays)
    sweep_states.note(
        f"fitted max-delay slope vs n: {slope_n:.2f} (claim: O(n^2) => <= ~2)"
    )

    dense = Table(
        "E1c  per-tuple delay vs |s| on dense logs  (.*x{[0-9]+}.*)",
        ["path", "lines", "|s|", "answers", "p50 delay (s)", "mean delay (s)"],
    )
    for path, compiled in (("cold", False), ("compiled", True)):
        rows = dense_delay_rows(compiled)
        for n_lines, row in zip(DENSE_LINE_COUNTS, rows):
            dense.add(path, n_lines, *row)
        dense_slope = fit_loglog_slope(
            [row[0] for row in rows], [row[2] for row in rows]
        )
        dense.note(
            f"{path}: fitted p50-delay slope vs |s|: {dense_slope:.2f} "
            "(claim: amortized delay independent of |s| => ~0; gate < 0.5)"
        )

    return [
        sweep_n_string, sweep_states, dense, stage_table(), padding_table()
    ]


# ---------------------------------------------------------------------------
# E1d: per-document stage times, cold path vs compiled path
# ---------------------------------------------------------------------------

#: E1d documents per shape, and timed passes over them (best kept).
STAGE_DOCS = 24
STAGE_REPEATS = 3


def stage_shapes() -> list[tuple[str, list[CompiledSpanner], list[str]]]:
    """``(name, spanners, documents)`` for the two E1d workload shapes."""
    dense = [log_lines(20, seed=k) for k in range(STAGE_DOCS)]
    lines = log_lines(STAGE_DOCS * 4, seed=1).split("\n")
    return [
        ("dense-logs", [CompiledSpanner(DENSE_PATTERN)], dense),
        (
            "serve-logs",
            [
                CompiledSpanner(dictionary_spanner(DICTIONARY)),
                CompiledSpanner(capitalized_spanner()),
                CompiledSpanner(".*code=x{[0-9]+}.*"),
            ],
            lines,
        ),
    ]


def _walk_only(names):
    """A decoder factory for timing the walk alone: its decoder builds
    nothing."""
    return lambda events: None


def _keep_events(names):
    """A decoder factory whose decoder copies each word's event list
    (the walk reuses the list it passes)."""
    return lambda events: list(events)


def walked_words(levels) -> tuple[tuple[str, ...], list[list]]:
    """``(head, event lists)``: every word of one walk over ``levels``,
    with the ascending variable names the walk decodes them over."""
    names = tuple(sorted(levels.variables))
    return names, list(walk_tuples(levels, _keep_events))


def _stages(tables: AutomatonTables, s: str, t0: int) -> list[int]:
    """ns since ``t0`` in forward, live, walk and decode on ``tables``,
    plus the tuple count.

    The walk is timed with a decoder that builds nothing; decode is
    timed over the same words, captured in an untimed second walk, with
    the decoder a production walk builds for the head.
    """
    t1 = perf_counter_ns()
    levels = StateSetLevels(tables, s)
    t2 = perf_counter_ns()
    if not levels.is_empty:
        levels.live_pass()
    t3 = perf_counter_ns()
    n = sum(1 for _ in walk_tuples(levels, _walk_only))
    t4 = perf_counter_ns()
    names, words = walked_words(levels)
    t5 = perf_counter_ns()
    decode = event_tuples(names)
    for events in words:
        decode(events)
    t6 = perf_counter_ns()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5, n]


def _cold_stages(spanner: CompiledSpanner, s: str) -> list[int]:
    """ns in table build, forward, live, walk and decode: what a cold
    ``SpannerEvaluator(spanner.automaton, s)`` runs."""
    t0 = perf_counter_ns()
    return _stages(AutomatonTables(spanner.automaton), s, t0)


def _compiled_stages(spanner: CompiledSpanner, s: str) -> list[int]:
    """The same stages on the spanner's shared tables (no table build)."""
    return _stages(spanner.tables, s, perf_counter_ns())


#: E1d's and E1e's level source per path, for counting walk steps.
STAGE_LEVELS = {
    "cold": lambda spanner, s: StateSetLevels(
        AutomatonTables(spanner.automaton), s
    ),
    "compiled": lambda spanner, s: StateSetLevels(spanner.tables, s),
}


def stage_rows() -> list[tuple]:
    """``(shape, path, tables, forward, live, walk, decode, total, walk
    steps)`` per document, times in ms.

    A document's time and steps are summed over the shape's spanners.
    Every document runs once untimed first, so the compiled path's
    memos are warm (the steady state of a stream); each path keeps its
    best of :data:`STAGE_REPEATS` passes.  Steps come from a separate,
    untimed walk through :class:`CountingLevels`.
    """
    rows = []
    for shape, spanners, docs in stage_shapes():
        for spanner in spanners:
            for s in docs:
                list(spanner.stream(s))
        counts: dict[str, int] = {}
        for path, stages in (
            ("cold", _cold_stages), ("compiled", _compiled_stages)
        ):
            steps = sum(
                walk_steps(STAGE_LEVELS[path](spanner, s))[0]
                for spanner in spanners
                for s in docs
            )
            best = None
            for _ in range(STAGE_REPEATS):
                totals = [0, 0, 0, 0, 0]
                tuples = 0
                for spanner in spanners:
                    for s in docs:
                        *times, n = stages(spanner, s)
                        totals = [a + b for a, b in zip(totals, times)]
                        tuples += n
                if best is None or sum(totals) < sum(best):
                    best = totals
            counts[path] = tuples
            ms = [ns / 1e6 / len(docs) for ns in best]
            rows.append((shape, path, *ms, sum(ms), steps / len(docs)))
        if counts["cold"] != counts["compiled"]:
            raise AssertionError(f"E1d {shape}: the paths disagree on tuples")
    return rows


def stage_table() -> Table:
    table = Table(
        "E1d  per-document stage times: cold path vs compiled path",
        ["shape", "path", "tables (ms)", "forward (ms)", "live (ms)",
         "walk (ms)", "decode (ms)", "total (ms)", "walk steps / doc"],
    )
    rows = stage_rows()
    for row in rows:
        table.add(*row)
    for cold, compiled in zip(rows[::2], rows[1::2]):
        table.note(
            f"{cold[0]}: total {cold[7]:.3f} ms cold -> {compiled[7]:.3f} "
            f"ms compiled ({cold[7] / compiled[7]:.1f}x); the one-off "
            f"tables are {cold[2]:.3f} ms of the cold total"
        )
    table.note(
        "both paths walk state sets: cold builds one-off AutomatonTables "
        "per document (what SpannerEvaluator(automaton, s) runs, its "
        "memos dying with it), compiled reads the memos CompiledSpanner "
        "keeps across documents"
    )
    table.note(
        "walk: the walk with a decoder that builds nothing; decode: the "
        "head's tuple decoder over the same words, captured in an untimed "
        "walk"
    )
    table.note(
        "walk steps: children lookups (memo reads or children() calls) "
        "plus jumps, counted by CountingLevels in an untimed walk; a "
        "memo miss counts twice (the read and the call)"
    )
    return table


# ---------------------------------------------------------------------------
# E1e: walk steps at a fixed tuple count as |s| grows
# ---------------------------------------------------------------------------

#: E1e: how many times |s| the padded documents are.
PADDING_FACTORS = (1, 2, 4)
#: Digit-free filler: ``.*x{[0-9]+}.*`` fires no marker on it.
PADDING = "idle ok; "


def padded_document(factor: int) -> str:
    """A dense-logs document grown about ``factor``-fold with padding.

    The digit-free padding goes before the first line, between lines
    and after the last, in equal shares, so the tuple count stays fixed.
    """
    lines = log_lines(20, seed=0).split("\n")
    share = (factor - 1) * len("\n".join(lines)) // (len(lines) + 1)
    filler = (PADDING * (share // len(PADDING) + 1))[:share]
    return "\n".join(filler + line for line in lines) + filler


def padding_rows() -> list[tuple[str, int, int, int, int]]:
    """``(path, factor, |s|, tuples, walk steps)`` per E1e document.

    One spanner serves every document, and each is walked once before
    it is counted, so the compiled path's memos are warm; the cold path
    counts on one-off tables.
    """
    spanner = CompiledSpanner(DENSE_PATTERN)
    rows = []
    for path, levels in STAGE_LEVELS.items():
        for factor in PADDING_FACTORS:
            s = padded_document(factor)
            list(spanner.stream(s))
            steps, tuples = walk_steps(levels(spanner, s))
            rows.append((path, factor, len(s), tuples, steps))
    return rows


def padding_growth(rows, path: str) -> float:
    """Walk steps at the largest factor over those at factor 1."""
    steps = [row[4] for row in rows if row[0] == path]
    return steps[-1] / steps[0]


def padding_table() -> Table:
    table = Table(
        "E1e  walk steps vs |s| at a fixed tuple count (digit-free padding)",
        ["path", "|s| factor", "|s|", "answers", "walk steps"],
    )
    rows = padding_rows()
    for row in rows:
        table.add(*row)
    for path in STAGE_LEVELS:
        table.note(
            f"{path}: walk steps x{padding_growth(rows, path):.2f} from "
            f"|s| x1 to x{PADDING_FACTORS[-1]} (gate: < 1.10)"
        )
    return table


# ---------------------------------------------------------------------------
# pytest-benchmark micro-benchmarks
# ---------------------------------------------------------------------------


def test_e1_preprocessing(benchmark):
    automaton = compile_regex(BASE_PATTERN).compacted()
    s = unary_text(120)
    benchmark(lambda: SpannerEvaluator(automaton, s))


def test_e1_full_enumeration(benchmark):
    automaton = compile_regex(BASE_PATTERN).compacted()
    s = unary_text(80)

    def enumerate_all():
        return sum(1 for _ in SpannerEvaluator(automaton, s))

    result = benchmark(enumerate_all)
    assert result == (80 + 1) * (80 + 2) // 2


def test_e1_delay_shape_polynomial():
    """Shape assertion: max delay grows sub-quadratically in N."""
    automaton = compile_regex(BASE_PATTERN).compacted()
    lengths = [25, 50, 100, 200]
    delays = [
        measure_delays(automaton, unary_text(n), limit=200).max_delay
        for n in lengths
    ]
    slope = fit_loglog_slope(lengths, delays)
    assert slope < 2.5, f"delay slope {slope:.2f} too steep for O(n^2 N)"


def test_e1c_dense_delay_flat():
    """E1c gate: the p50 per-tuple delay does not grow with ``|s|``."""
    rows = dense_delay_rows()
    assert all(answers > 1 for _length, answers, _p50, _mean in rows)
    slope = fit_loglog_slope([row[0] for row in rows], [row[2] for row in rows])
    assert slope < 0.5, f"p50 delay slope {slope:.2f} vs |s| is not flat"


def test_e1d_decode_stage():
    """E1d's decode stage decodes exactly the stream's tuples, and every
    row reports a walk and a decode time."""
    spanner = CompiledSpanner(DENSE_PATTERN)
    for s in (log_lines(20, seed=0), "no digits"):
        names, words = walked_words(StateSetLevels(spanner.tables, s))
        decode = event_tuples(names)
        assert [decode(events) for events in words] == list(spanner.stream(s))
    rows = stage_rows()
    assert [row[:2] for row in rows] == [
        (shape, path)
        for shape in ("dense-logs", "serve-logs")
        for path in ("cold", "compiled")
    ]
    for row in rows:
        walk, decode, total = row[5], row[6], row[7]
        assert walk > 0 and decode > 0
        assert abs(sum(row[2:7]) - total) < 1e-9


def test_e1e_walk_steps_track_tuples():
    """E1e gate: padding |s| x2 and x4 grows walk steps < 10%, on the
    cold and the compiled path."""
    all_rows = padding_rows()
    for path in STAGE_LEVELS:
        rows = [row for row in all_rows if row[0] == path]
        assert len({row[3] for row in rows}) == 1, "padding changed the tuples"
        assert rows[-1][2] >= 3.5 * rows[0][2], "padding did not grow |s|"
        for _path, factor, _length, _tuples, steps in rows[1:]:
            growth = steps / rows[0][4]
            assert growth < 1.10, (
                f"{path}: walk steps x{growth:.2f} at |s| x{factor}: "
                "not tracking tuples"
            )


def test_e1c_compiled_dense_delay_flat():
    """E1c gate on the compiled path (``CompiledSpanner.stream``)."""
    rows = dense_delay_rows(compiled=True)
    assert all(answers > 1 for _length, answers, _p50, _mean in rows)
    slope = fit_loglog_slope([row[0] for row in rows], [row[2] for row in rows])
    assert slope < 0.5, f"p50 delay slope {slope:.2f} vs |s| is not flat"
