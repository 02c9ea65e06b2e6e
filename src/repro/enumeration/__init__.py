"""Polynomial-delay enumeration of ``[[A]](s)`` (Theorem 3.3, Section 4).

The pipeline walks the determinized evaluation NFA ``A_G`` over the
variable-configuration alphabet in radix order, forced stretches
collapsed, decoding each word from the slots where its configuration
changes (:func:`.enumerator.walk_tuples`), with one decoder per walk,
specialised to the head's size.  A word ends at its
all-``CLOSED`` letter, and the walk jumps the silent stretches its
source lists: on the state-set source the all-``WAITING`` word jumps
between the levels where a marker can fire, so the walk no longer
steps the stretches before a word's first marker or after its last;
on the equality source a stretch where nothing can fire is one
product id, crossed in one step.  The walk reads one of two level
sources: memoized automaton-state sets that need no per-document graph
(:mod:`.statesets`; every regex evaluator, whether its tables are
shared across documents, as in ``CompiledSpanner`` and fused serving,
or built for one call, as in the cold ``SpannerEvaluator``), or an
equality query's fused product
(:class:`repro.runtime.equality.EqualityLevels`).  The leveled graph
``G`` / pruned ``A_G`` itself (:mod:`.graph`) and the paper's
state-stack algorithm (:class:`repro.automata.leveled.RadixEnumerator`)
plus :func:`decode_configuration_word` are the reference that walk
matches.
"""

from .enumerator import (
    SpannerEvaluator,
    decode_configuration_word,
    enumerate_tuples,
)
from .graph import build_evaluation_graph
from .instrumentation import DelayReport, measure_delays

__all__ = [
    "SpannerEvaluator",
    "enumerate_tuples",
    "decode_configuration_word",
    "build_evaluation_graph",
    "DelayReport",
    "measure_delays",
]
