"""Delay instrumentation for enumeration benchmarks (E1, E8, E10).

Theorem 3.3 is a statement about *delay* — the wall-clock gap between
consecutive answers — not total time.  :func:`measure_delays` samples
``perf_counter`` around preprocessing and around every ``__next__`` so
the benchmark harness can report max/mean delay as the paper's bounds
predict, without perturbing the algorithmic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator

from ..spans import SpanTuple
from ..vset.automaton import VSetAutomaton
from .enumerator import SpannerEvaluator

__all__ = ["DelayReport", "measure_delays", "measure_generator_delays"]


@dataclass(slots=True)
class DelayReport:
    """Timing profile of one enumeration run.

    Attributes:
        preprocessing_seconds: Theorem 3.3's preprocessing phase: the
            one-off tables and the forward and live passes (the live
            pass stands in for pruning ``A_G``).
        delays: per-answer delays in seconds, in output order; the
            first entry is the time from end-of-preprocessing to the
            first answer.
        truncated: True when ``limit`` stopped the run early.
    """

    preprocessing_seconds: float
    delays: list[float] = field(default_factory=list)
    truncated: bool = False

    @property
    def count(self) -> int:
        return len(self.delays)

    @property
    def max_delay(self) -> float:
        return max(self.delays, default=0.0)

    @property
    def mean_delay(self) -> float:
        if not self.delays:
            return 0.0
        return sum(self.delays) / len(self.delays)

    @property
    def total_seconds(self) -> float:
        return self.preprocessing_seconds + sum(self.delays)


def measure_delays(
    automaton: VSetAutomaton, s: str, limit: int | None = None
) -> DelayReport:
    """Enumerate ``[[A]](s)`` and record per-answer delays.

    Args:
        automaton: a functional vset-automaton.
        s: the input string.
        limit: optional cap on the number of answers timed.
    """
    start = perf_counter()
    evaluator = SpannerEvaluator(automaton, s)
    levels = evaluator._levels
    if not levels.is_empty:
        # Otherwise the walk runs it lazily, inside the first delay.
        levels.live_pass()
    report = DelayReport(preprocessing_seconds=perf_counter() - start)
    _drain(iter(evaluator), report, limit)
    return report


def measure_generator_delays(
    make_iterator: Callable[[], Iterable[SpanTuple]], limit: int | None = None
) -> DelayReport:
    """Delay-profile an arbitrary tuple stream (e.g. a UCQ evaluator).

    ``make_iterator`` is invoked inside the timed region, so whatever
    preprocessing it performs lazily lands in the first delay sample;
    evaluators that precompute eagerly should be wrapped so that their
    setup happens inside ``make_iterator``.
    """
    start = perf_counter()
    iterator = iter(make_iterator())
    report = DelayReport(preprocessing_seconds=perf_counter() - start)
    _drain(iterator, report, limit)
    return report


def _drain(
    iterator: Iterator[SpanTuple], report: DelayReport, limit: int | None
) -> None:
    last = perf_counter()
    for _tuple in iterator:
        now = perf_counter()
        report.delays.append(now - last)
        last = now
        if limit is not None and len(report.delays) >= limit:
            report.truncated = True
            return
