"""Decision procedures on vset-automata beyond evaluation.

* :func:`assignment_automaton` — the single-tuple path automaton: a
  spanner whose only tuple on ``s`` is a given assignment (and which is
  empty on every other string).  This is the degenerate case of the
  Theorem 5.4 construction (one "choice" instead of all equal-substring
  choices), and composes with the join of Lemma 3.10.
* :func:`contains_tuple` — the membership problem "is ``mu`` in
  ``[[A]](s)``?", decided in polynomial time by joining ``A`` with the
  assignment automaton and checking emptiness.  This gives a
  per-candidate tester that never enumerates.
* :func:`is_empty_on` — "is ``[[A]](s)`` empty?", the Boolean fast path
  of the evaluator surfaced as a standalone helper.
"""

from __future__ import annotations

from typing import Mapping

from ..alphabet import EPSILON, VariableMarker, char_pred
from ..automata.nfa import NFA
from ..errors import SchemaError
from ..spans import Span, SpanTuple
from .automaton import VSetAutomaton
from .join import join

__all__ = ["assignment_automaton", "contains_tuple", "is_empty_on"]


def assignment_automaton(s: str, assignment: Mapping[str, Span]) -> VSetAutomaton:
    """A functional vset-automaton whose only tuple on ``s`` is
    ``assignment`` (and whose relation is empty on any other string).

    Raises:
        SchemaError: if some span does not fit ``s``.
    """
    for var, span in assignment.items():
        if not span.fits(s):
            raise SchemaError(f"span {span} of {var!r} does not fit the string")
    nfa = NFA()
    initial = nfa.add_state()
    final = nfa.add_state()
    nfa.set_initial(initial)
    nfa.add_final(final)

    markers_at: dict[int, set[VariableMarker]] = {}
    for var, span in assignment.items():
        markers_at.setdefault(span.start, set()).add(VariableMarker(var, True))
        markers_at.setdefault(span.end, set()).add(VariableMarker(var, False))

    current = initial
    n = len(s)
    for gap in range(1, n + 2):
        ops = frozenset(markers_at.get(gap, ()))
        if ops:
            nxt = nfa.add_state() if gap <= n else final
            nfa.add_transition(current, ops, nxt)
            current = nxt
        elif gap > n:
            nfa.add_transition(current, EPSILON, final)
            current = final
        if gap <= n:
            nxt = nfa.add_state()
            nfa.add_transition(current, char_pred(s[gap - 1]), nxt)
            current = nxt
    return VSetAutomaton(nfa, assignment.keys())


def contains_tuple(
    automaton: VSetAutomaton, s: str, mu: SpanTuple | Mapping[str, Span]
) -> bool:
    """Decide ``mu ∈ [[A]](s)`` without enumerating.

    ``mu`` must assign exactly ``Vars(A)``.  The check joins ``A`` with
    the single-tuple path automaton for ``mu`` (Lemma 3.10) and tests
    language emptiness — polynomial in ``|A|`` and ``|s|``.
    """
    assignment = dict(mu)
    if set(assignment) != set(automaton.variables):
        raise SchemaError(
            f"tuple over {sorted(assignment)} does not match "
            f"Vars(A) = {sorted(automaton.variables)}"
        )
    if not assignment:
        # Boolean spanner: membership of the empty tuple = non-emptiness.
        return not is_empty_on(automaton, s)
    probe = assignment_automaton(s, assignment)
    return not join(automaton, probe).is_empty_language()


def is_empty_on(automaton: VSetAutomaton, s: str) -> bool:
    """Decide whether ``[[A]](s)`` is empty (no enumeration needed).

    Reads the forward pass of state-set evaluation: ``[[A]](s)`` is
    nonempty iff the final state is in the last forward set.
    """
    from ..enumeration.enumerator import SpannerEvaluator

    return SpannerEvaluator(automaton, s).is_empty()
