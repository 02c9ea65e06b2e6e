"""Closure, reachability, trimming and simulation for NFAs.

These are the standard-textbook building blocks the paper's proofs lean
on (breadth-first searches "in time O(m + n)", transitive closures,
"ensure all states are reachable from q0 and qf is reachable from every
state").  All functions are label-agnostic: callers pass a predicate
classifying which labels may be traversed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

from ..alphabet import SymbolPredicate, is_epsilon
from .nfa import NFA

__all__ = [
    "closure",
    "reachable_states",
    "coreachable_states",
    "trim",
    "simulate",
]

Label = Hashable
LabelFilter = Callable[[Label], bool]


def closure(
    nfa: NFA, states: Iterable[int], traversable: LabelFilter
) -> frozenset[int]:
    """States reachable from ``states`` using only ``traversable`` edges.

    With ``traversable = is_epsilon`` this is the classic epsilon
    closure; with epsilon-or-marker labels it is the paper's variable-
    epsilon closure ``VE`` (proof of Lemma 3.10).
    """
    seen = set(states)
    frontier = deque(seen)
    while frontier:
        q = frontier.popleft()
        for label, dst in nfa.transitions[q]:
            if dst not in seen and traversable(label):
                seen.add(dst)
                frontier.append(dst)
    return frozenset(seen)


def reachable_states(
    nfa: NFA, sources: Iterable[int], traversable: LabelFilter | None = None
) -> frozenset[int]:
    """Forward reachability from ``sources`` (all labels by default)."""
    if traversable is None:
        return closure(nfa, sources, lambda _label: True)
    return closure(nfa, sources, traversable)


def coreachable_states(
    nfa: NFA, targets: Iterable[int], traversable: LabelFilter | None = None
) -> frozenset[int]:
    """Backward reachability: states from which ``targets`` are reachable."""
    reverse: list[list[int]] = [[] for _ in range(nfa.n_states)]
    for src, label, dst in nfa.iter_edges():
        if traversable is None or traversable(label):
            reverse[dst].append(src)
    seen = set(targets)
    frontier = deque(seen)
    while frontier:
        q = frontier.popleft()
        for src in reverse[q]:
            if src not in seen:
                seen.add(src)
                frontier.append(src)
    return frozenset(seen)


def trim(nfa: NFA) -> tuple[NFA, dict[int, int]]:
    """Drop states not on an initial-to-final path.

    Returns the trimmed automaton and the old-to-new state map.  If the
    language is empty the result has a lone initial state (kept so the
    automaton stays well-formed) and no finals.
    """
    if nfa.initial is None:
        raise ValueError("automaton has no initial state")
    forward = reachable_states(nfa, (nfa.initial,))
    backward = coreachable_states(nfa, nfa.finals)
    useful = forward & backward
    if not useful:
        empty = NFA()
        q0 = empty.add_state()
        empty.set_initial(q0)
        return empty, {nfa.initial: q0}
    keep = set(useful)
    keep.add(nfa.initial)
    return nfa.induced(keep)


def simulate(
    nfa: NFA,
    word: Iterable[Label],
    matches: Callable[[Label, Label], bool] | None = None,
) -> bool:
    """Membership test by standard set-based simulation.

    ``word`` is a sequence of concrete symbols.  ``matches(label, sym)``
    decides whether a transition labelled ``label`` can read ``sym``;
    the default handles this library's conventions: a
    :class:`SymbolPredicate` label matches characters via
    ``predicate.matches``, any other non-epsilon label matches only an
    equal symbol (so marker labels match marker symbols exactly).

    Epsilon transitions (label :data:`EPSILON`) are always traversed for
    free and never consume a symbol.
    """
    if nfa.initial is None:
        return False
    if matches is None:
        matches = _default_matches
    current = closure(nfa, (nfa.initial,), is_epsilon)
    for sym in word:
        step: set[int] = set()
        for q in current:
            for label, dst in nfa.transitions[q]:
                if not is_epsilon(label) and matches(label, sym):
                    step.add(dst)
        if not step:
            return False
        current = closure(nfa, step, is_epsilon)
    return bool(current & nfa.finals)


def _default_matches(label: Label, sym: Label) -> bool:
    if isinstance(label, SymbolPredicate):
        return isinstance(sym, str) and label.matches(sym)
    return label == sym
