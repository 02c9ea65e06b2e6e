"""Runtime string-equality automata (Theorem 5.4).

String equality cannot be compiled into a vset-automaton *statically* —
core spanners are strictly more expressive than regular ones.  The
paper's way out is to compile the equality **for the specific input
string s**: build a functional vset-automaton ``A_eq`` such that
``mu ∈ [[A_eq]](s)`` iff the selected variables span equal substrings
of ``s``, and ``[[A_eq]](s') = ∅`` for every other string ``s'``.  Then
``[[ζ^=(A)]](s) = [[A ⋈ A_eq]](s)`` by Lemma 3.10.

Construction.  For a single equality group ``(z_1, ..., z_k)``: for
every substring length ``L`` and every choice of ``k`` start positions
whose length-``L`` substrings coincide, emit a "path" automaton that
reads ``s`` verbatim and fires the group's markers at the chosen
boundaries; ``A_eq`` is the union of all paths sharing one initial and
one final state.  Choices come from grouping each length's starts by
the substring itself (the definition, shared with no production
index), giving ``O(N^{k+1})`` choices and ``O(N^{k+2})`` states for one
group — the binary case ``k = 2`` matches the paper's ``O(N^3)``
choices / ``O(N^4)`` states.

This module is the *materializing* path.  The fused runtime
(:mod:`repro.runtime.equality`) evaluates ``A ⋈ A_eq`` without ever
building ``A_eq`` as an explicit automaton; this construction remains
the parity reference and the fallback for callers that need the
automaton itself.

Multiple equality selections are handled by the caller (one join per
group), which is the factoring the paper's remark about shared
variables suggests; joining all groups into one ``A_eq`` up front would
reproduce the paper's monolithic ``O(N^{3m+1})`` automaton.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Iterator, Sequence

from ..alphabet import EPSILON, char_pred
from ..automata.nfa import NFA
from ..errors import SchemaError
from ..spans import Span
from .automaton import VSetAutomaton

__all__ = ["equality_automaton", "equal_span_choices", "equality_relation_rows"]


def equal_span_choices(s: str, k: int) -> Iterator[tuple[Span, ...]]:
    """Yield every ``k``-tuple of spans of ``s`` with equal substrings.

    Tuples are grouped by (length, substring); the same span may appear
    several times inside one tuple (a span trivially equals itself —
    the selection operator compares substrings, not spans).  Each
    length's starts are grouped in a dict keyed on the substring,
    filled in ascending start order, so groups come in first-occurrence
    order.
    """
    n = len(s)
    for length in range(0, n + 1):
        groups: dict[str, list[Span]] = {}
        for start in range(n + 1 - length):
            groups.setdefault(s[start : start + length], []).append(
                Span(start + 1, start + 1 + length)
            )
        for spans in groups.values():
            yield from cartesian_product(spans, repeat=k)


def equality_relation_rows(
    s: str, variables: Sequence[str]
) -> Iterator[dict[str, Span]]:
    """Rows of the materialized equality relation over ``variables``.

    Used by the canonical relational strategy (Corollary 5.3): the
    relation of an equality atom has polynomially many rows —
    ``O(N^3)`` for the binary case.
    """
    k = len(variables)
    for choice in equal_span_choices(s, k):
        yield dict(zip(variables, choice))


def equality_automaton(s: str, variables: Sequence[str]) -> VSetAutomaton:
    """Build ``A_eq`` for one equality group on the concrete string ``s``.

    Args:
        s: the input string the equality is compiled against.
        variables: the equality group ``(z_1, ..., z_k)``, ``k >= 2``,
            pairwise distinct.

    Returns:
        A functional vset-automaton with ``Vars = set(variables)`` whose
        relation on ``s`` is exactly the span tuples with equal
        substrings, and whose relation on any other string is empty.
    """
    group = tuple(variables)
    if len(group) < 2:
        raise SchemaError("a string-equality group needs at least 2 variables")
    if len(set(group)) != len(group):
        raise SchemaError("string-equality variables must be distinct")

    nfa = NFA()
    initial = nfa.add_state()
    final = nfa.add_state()
    nfa.set_initial(initial)
    nfa.add_final(final)

    for choice in equal_span_choices(s, len(group)):
        _add_path(nfa, initial, final, s, dict(zip(group, choice)))
    return VSetAutomaton(nfa, group).trimmed()


def _add_path(
    nfa: NFA,
    initial: int,
    final: int,
    s: str,
    assignment: dict[str, Span],
) -> None:
    """One path reading ``s`` with markers at the assigned boundaries."""
    from ..alphabet import VariableMarker

    n = len(s)
    markers_at: dict[int, set[VariableMarker]] = {}
    for var, span in assignment.items():
        markers_at.setdefault(span.start, set()).add(VariableMarker(var, True))
        markers_at.setdefault(span.end, set()).add(VariableMarker(var, False))

    current = initial
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
