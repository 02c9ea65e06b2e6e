"""Polynomial-delay enumeration of ``[[A]](s)`` (Theorem 3.3, Section 4).

The pipeline: build the leveled evaluation graph ``G`` / NFA ``A_G``
over the variable-configuration alphabet (:mod:`.graph`), then walk
the determinized ``A_G`` in radix order with forced stretches collapsed,
decoding each word from the slots where its configuration changes
(:func:`.enumerator.graph_tuples`).  The paper's state-stack algorithm
(:class:`repro.automata.leveled.RadixEnumerator`) plus
:func:`decode_configuration_word` is the reference that walk matches.
"""

from .enumerator import (
    SpannerEvaluator,
    decode_configuration_word,
    enumerate_tuples,
    graph_tuples,
)
from .graph import build_evaluation_graph
from .instrumentation import DelayReport, measure_delays

__all__ = [
    "SpannerEvaluator",
    "enumerate_tuples",
    "decode_configuration_word",
    "graph_tuples",
    "build_evaluation_graph",
    "DelayReport",
    "measure_delays",
]
