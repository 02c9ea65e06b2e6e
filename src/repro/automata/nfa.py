"""A minimal, label-agnostic epsilon-NFA container.

States are dense integers.  Transition labels are opaque hashables;
the conventional labels used across this library are:

* :data:`repro.alphabet.EPSILON` — epsilon moves;
* :class:`repro.alphabet.SymbolPredicate` — terminal moves;
* :class:`repro.alphabet.VariableMarker` — variable operations;
* ``frozenset[VariableMarker]`` — multi-operation moves (Lemma 3.10).

The container deliberately knows nothing about label semantics; the
helpers in :mod:`repro.automata.ops` take predicates that classify
labels, and :mod:`repro.vset` layers the spanner interpretation on top.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from ..alphabet import SortedPickle

__all__ = ["NFA"]

Label = Hashable


class NFA:
    """A nondeterministic finite automaton with opaque labels.

    Attributes:
        transitions: adjacency list; ``transitions[q]`` is the list of
            ``(label, destination)`` pairs leaving state ``q``.
        initial: the initial state, or ``None`` until set.
        finals: the set of accepting states.
    """

    __slots__ = ("transitions", "initial", "finals")

    def __init__(self) -> None:
        self.transitions: list[list[tuple[Label, int]]] = []
        self.initial: int | None = None
        self.finals: set[int] = set()

    def __getstate__(self) -> tuple:
        # frozenset labels pickle sorted (see
        # :class:`~repro.alphabet.SortedPickle`), one wrapper per
        # distinct label so shared labels stay shared.
        wrapped: dict = {}

        def label_of(label: Label) -> object:
            if not isinstance(label, frozenset):
                return label
            found = wrapped.get(label)
            if found is None:
                found = wrapped[label] = SortedPickle(label)
            return found

        transitions = [
            [(label_of(label), dst) for label, dst in edges]
            for edges in self.transitions
        ]
        return (
            None,
            {
                "transitions": transitions,
                "initial": self.initial,
                "finals": self.finals,
            },
        )

    # -- Construction -------------------------------------------------------
    def add_state(self) -> int:
        """Create a fresh state and return its id."""
        self.transitions.append([])
        return len(self.transitions) - 1

    def add_states(self, count: int) -> range:
        """Create ``count`` fresh states, returning their id range."""
        first = len(self.transitions)
        for _ in range(count):
            self.transitions.append([])
        return range(first, first + count)

    def add_transition(self, src: int, label: Label, dst: int) -> None:
        self.transitions[src].append((label, dst))

    def set_initial(self, state: int) -> None:
        self.initial = state

    def add_final(self, state: int) -> None:
        self.finals.add(state)

    # -- Inspection -----------------------------------------------------------
    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_transitions(self) -> int:
        return sum(len(edges) for edges in self.transitions)

    def iter_edges(self) -> Iterator[tuple[int, Label, int]]:
        """Yield all edges as ``(src, label, dst)`` triples."""
        for src, edges in enumerate(self.transitions):
            for label, dst in edges:
                yield src, label, dst

    def labels(self) -> set[Label]:
        """The set of labels used on any transition."""
        return {label for _, label, _ in self.iter_edges()}

    # -- Copying / renumbering -------------------------------------------------
    def copy(self) -> "NFA":
        clone = NFA()
        clone.transitions = [list(edges) for edges in self.transitions]
        clone.initial = self.initial
        clone.finals = set(self.finals)
        return clone

    def induced(self, keep: Iterable[int]) -> tuple["NFA", dict[int, int]]:
        """The sub-automaton induced by ``keep``, plus the state mapping.

        States outside ``keep`` and edges touching them are dropped.
        Returns ``(nfa, old_to_new)``.  The initial state must survive;
        finals are intersected with ``keep``.
        """
        keep_set = set(keep)
        old_to_new: dict[int, int] = {}
        clone = NFA()
        for old in sorted(keep_set):
            old_to_new[old] = clone.add_state()
        for src, label, dst in self.iter_edges():
            if src in keep_set and dst in keep_set:
                clone.add_transition(old_to_new[src], label, old_to_new[dst])
        if self.initial is not None and self.initial in keep_set:
            clone.initial = old_to_new[self.initial]
        clone.finals = {old_to_new[f] for f in self.finals if f in keep_set}
        return clone, old_to_new

    def map_labels(self, mapping: Callable[[Label], Label]) -> "NFA":
        """A copy with every label passed through ``mapping``."""
        clone = NFA()
        clone.transitions = [
            [(mapping(label), dst) for label, dst in edges]
            for edges in self.transitions
        ]
        clone.initial = self.initial
        clone.finals = set(self.finals)
        return clone

    def __repr__(self) -> str:
        return (
            f"NFA(states={self.n_states}, transitions={self.n_transitions}, "
            f"initial={self.initial}, finals={sorted(self.finals)})"
        )
