"""spanner-join: document spanners, regex CQs/UCQs, and their evaluation.

A faithful, from-scratch reproduction of

    D. D. Freydenberger, B. Kimelfeld, L. Peterfreund.
    "Joining Extractions of Regular Expressions", PODS 2018.

Quickstart::

    import repro

    spanner = repro.compile_regex(".*x{[a-z]+}@y{[a-z]+}.*")
    for mu in repro.enumerate_tuples(spanner, "mail me: ada@lovelace now"):
        print(mu.strings("mail me: ada@lovelace now"))

Layering (bottom-up): :mod:`repro.spans` / :mod:`repro.refwords` →
:mod:`repro.regex` / :mod:`repro.automata` → :mod:`repro.vset` →
:mod:`repro.runtime` (string-independent tables) →
:mod:`repro.enumeration` → :mod:`repro.runtime.compiled`
(:class:`CompiledSpanner`) → :mod:`repro.relational` →
:mod:`repro.queries` → :mod:`repro.reductions` / :mod:`repro.extractors`.
"""

from .errors import (
    EvaluationError,
    InvalidSpanError,
    NotFunctionalError,
    OverloadedError,
    QueryError,
    QueryQuarantinedError,
    RegexParseError,
    SchemaError,
    ServiceClosedError,
    SpannerError,
    TaskTimeoutError,
    TransientTaskError,
)
from .spans import Span, SpanRelation, SpanTuple
from .regex import parse, is_functional, check_functional
from .vset import (
    VSetAutomaton,
    compile_regex,
    equality_automaton,
    is_key_attribute,
    is_vset_functional,
    join,
    project,
    rename_variables,
    union,
)
from .enumeration import SpannerEvaluator, enumerate_tuples, measure_delays
from .runtime.cache import cache_metrics
from .runtime.compiled import CompiledSpanner
from .runtime.equality import CompiledEqualityQuery, equality_join
from .runtime.parallel import ParallelSpanner
from .runtime.service import ServiceConfig, SpannerService

__version__ = "1.0.0"

__all__ = [
    "Span",
    "SpanTuple",
    "SpanRelation",
    "parse",
    "is_functional",
    "check_functional",
    "VSetAutomaton",
    "compile_regex",
    "project",
    "union",
    "join",
    "rename_variables",
    "equality_automaton",
    "is_key_attribute",
    "is_vset_functional",
    "SpannerEvaluator",
    "CompiledSpanner",
    "CompiledEqualityQuery",
    "ParallelSpanner",
    "SpannerService",
    "ServiceConfig",
    "equality_join",
    "cache_metrics",
    "enumerate_tuples",
    "measure_delays",
    "evaluate",
    "SpannerError",
    "RegexParseError",
    "NotFunctionalError",
    "InvalidSpanError",
    "SchemaError",
    "QueryError",
    "EvaluationError",
    "TaskTimeoutError",
    "QueryQuarantinedError",
    "OverloadedError",
    "ServiceClosedError",
    "TransientTaskError",
]


def evaluate(spanner, s: str) -> SpanRelation:
    """Materialize ``[[spanner]](s)`` as a :class:`SpanRelation`.

    ``spanner`` may be a vset-automaton, a regex-formula AST, or a
    string in the concrete regex syntax.
    """
    if not isinstance(spanner, VSetAutomaton):
        spanner = compile_regex(spanner)
    return spanner.evaluate(s)
