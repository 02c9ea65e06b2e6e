"""Cross-section enumeration: all words of a fixed length, in radix order.

This is the problem of Ackerman and Shallit [2] that the paper reduces
tuple enumeration to: given an NFA ``M`` and a length ``L``, enumerate
``L(M) ∩ Sigma^L`` without repetition.  We solve it by unrolling the
NFA into a :class:`~repro.automata.leveled.LeveledNFA` (states paired
with positions, epsilon transitions collapsed) and handing the result to
:class:`~repro.automata.leveled.RadixEnumerator`.

The production tuple enumerator does *not* go through this module (it
walks memoized state sets, see :mod:`repro.enumeration.statesets`),
and neither does the ref-word oracle (:mod:`repro.oracle`); the
cross-section here is the generic word-enumeration primitive of [2].
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from ..alphabet import SymbolPredicate, VariableMarker, is_epsilon
from .leveled import LeveledNFA, RadixEnumerator
from .nfa import NFA
from .ops import closure

__all__ = ["cross_section", "enumerate_fixed_length", "default_symbol_key"]

Label = Hashable


def default_symbol_key(symbol: Label) -> tuple:
    """A total order over mixed concrete symbols.

    Characters sort before markers; markers sort by (variable, close <
    open is *not* used — opens first) to keep output deterministic.
    """
    if isinstance(symbol, str):
        return (0, symbol)
    if isinstance(symbol, VariableMarker):
        return (1, symbol.variable, not symbol.is_open)
    return (2, repr(symbol))


def _default_expand(alphabet: frozenset[str]) -> Callable[[Label], Iterable[Label]]:
    def expand(label: Label) -> Iterable[Label]:
        if isinstance(label, SymbolPredicate):
            return sorted(label.concretize(alphabet))
        return (label,)

    return expand


def cross_section(
    nfa: NFA,
    length: int,
    alphabet: Iterable[str],
    expand: Callable[[Label], Iterable[Label]] | None = None,
) -> LeveledNFA:
    """Unroll ``nfa`` into a leveled NFA of words of exactly ``length``.

    Args:
        nfa: the automaton; epsilon labels are collapsed.
        length: required word length ``L``.
        alphabet: concrete characters used to expand predicate labels.
        expand: optional override mapping an edge label to the concrete
            symbols it can read (defaults: predicates expand over
            ``alphabet``, any other non-epsilon label stands for itself).

    Returns:
        A pruned :class:`LeveledNFA` whose words are exactly
        ``L(nfa) ∩ (symbols)^L``.
    """
    if nfa.initial is None:
        raise ValueError("automaton has no initial state")
    expand_fn = expand if expand is not None else _default_expand(frozenset(alphabet))

    leveled = LeveledNFA(length)
    start_states = closure(nfa, (nfa.initial,), is_epsilon)
    if length == 0:
        if start_states & nfa.finals:
            leveled.mark_accepting(LeveledNFA.ROOT)
        leveled.prune()
        return leveled

    node_of: dict[tuple[int, int], int] = {}

    def node(level: int, state: int) -> int:
        key = (level, state)
        found = node_of.get(key)
        if found is None:
            found = leveled.add_node(level)
            node_of[key] = found
        return found

    frontier: set[int] = set(start_states)
    sources: dict[int, int] = {q: LeveledNFA.ROOT for q in frontier}
    for level in range(1, length + 1):
        next_frontier: set[int] = set()
        edges_out: list[tuple[int, Label, int]] = []
        for q in frontier:
            src_node = sources[q]
            for label, dst in nfa.transitions[q]:
                if is_epsilon(label):
                    continue
                for symbol in expand_fn(label):
                    for r in closure(nfa, (dst,), is_epsilon):
                        edges_out.append((src_node, symbol, r))
                        next_frontier.add(r)
        new_sources: dict[int, int] = {}
        seen_edges: set[tuple[int, Label, int]] = set()
        for src_node, symbol, r in edges_out:
            dst_node = node(level, r)
            new_sources[r] = dst_node
            edge = (src_node, symbol, dst_node)
            if edge not in seen_edges:
                seen_edges.add(edge)
                leveled.add_edge(src_node, symbol, dst_node)
        frontier = next_frontier
        sources = new_sources
    for q in frontier:
        if q in nfa.finals:
            leveled.mark_accepting(node_of[(length, q)])
    leveled.prune()
    return leveled


def enumerate_fixed_length(
    nfa: NFA,
    length: int,
    alphabet: Iterable[str],
    expand: Callable[[Label], Iterable[Label]] | None = None,
    key: Callable[[Label], object] = default_symbol_key,
) -> Iterator[tuple[Label, ...]]:
    """Yield every word of ``L(nfa)`` of exactly ``length``, radix order."""
    leveled = cross_section(nfa, length, alphabet, expand)
    yield from RadixEnumerator(leveled, key)
