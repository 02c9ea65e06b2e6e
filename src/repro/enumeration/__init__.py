"""Polynomial-delay enumeration of ``[[A]](s)`` (Theorem 3.3, Section 4).

The pipeline walks the determinized evaluation NFA ``A_G`` over the
variable-configuration alphabet in radix order, forced stretches
collapsed, decoding each word from the slots where its configuration
changes (:func:`.enumerator.walk_tuples`).  The walk reads one of three
level sources: the leveled graph ``G`` / pruned ``A_G`` itself
(:mod:`.graph`; the cold ``SpannerEvaluator``), memoized
automaton-state sets that need no per-document graph (:mod:`.statesets`;
evaluators over shared tables, i.e. ``CompiledSpanner`` and fused
serving), or an equality query's fused product
(:class:`repro.runtime.equality.EqualityLevels`).  The paper's
state-stack algorithm (:class:`repro.automata.leveled.RadixEnumerator`) plus
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
