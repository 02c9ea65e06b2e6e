"""The public tuple enumerator (Theorem 3.3).

:class:`SpannerEvaluator` separates the two phases the theorem
distinguishes: the ``O(n^2 |s| + mn)`` preprocessing happens in the
constructor (building the pruned ``A_G``); iteration then yields each
tuple of ``[[A]](s)`` exactly once, in the radix order of configuration
sequences.

Iteration runs :func:`graph_tuples`, an event-compressed walk of
``A_G``.  Its worst-case delay is the theorem's ``O(n^2 |s|)``, but its
amortized delay does not grow with ``|s|``: each determinized state set
is stepped once per document, and on top of that a tuple costs work
bounded by the automaton (``n`` states, ``|V|`` variables), because a
word is carried as the at most ``2|V| + 1`` slots where its letter
changes.  The paper's Algorithms 1–3
(:class:`~repro.automata.leveled.RadixEnumerator` plus
:func:`decode_configuration_word`) remain the reference the walk is
tested against, and serve :meth:`SpannerEvaluator.configuration_words`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..spans import Span, SpanTuple
from ..automata.leveled import LeveledNFA, RadixEnumerator
from ..runtime.tables import AutomatonTables
from ..vset.automaton import VSetAutomaton
from ..vset.configurations import CLOSED, WAITING, VariableConfiguration
from .graph import EvaluationGraph, build_evaluation_graph

__all__ = [
    "SpannerEvaluator",
    "enumerate_tuples",
    "decode_configuration_word",
    "graph_tuples",
]


def decode_configuration_word(
    word: Sequence[VariableConfiguration], variables: frozenset[str]
) -> SpanTuple:
    """Decode ``κ_0 ... κ_N`` into the (V, s)-tuple it encodes (§4.1).

    ``κ_i`` is the configuration immediately before reading ``σ_{i+1}``;
    for each variable the span starts at the first index where it is no
    longer waiting and ends at the first index where it is closed
    (1-based: index ``i`` maps to position ``i + 1``).
    """
    assignment: dict[str, Span] = {}
    for var in variables:
        start = None
        end = None
        for i, kappa in enumerate(word):
            state = kappa.of(var)
            if start is None and state != WAITING:
                start = i + 1
            if end is None and state == CLOSED:
                end = i + 1
            if start is not None and end is not None:
                break
        if start is None or end is None:
            raise ValueError(
                f"configuration word never closes variable {var!r}"
            )
        assignment[var] = Span(start, end)
    return SpanTuple(assignment)


# -- The event-compressed walk ----------------------------------------------
#
# A state set ``S`` is a sorted tuple of A_G nodes; node ids are unique to
# their level, so ``S`` names its level too.  A letter is a configuration's
# ``states`` tuple: all configurations of one graph share their variable
# tuple, so ``states`` identifies the letter and its natural tuple order is
# the radix order ``<_K`` (``VariableConfiguration.sort_key``).  A word is
# an *event list* of ``(slot, letter)`` pairs, one per slot where the
# letter differs from the slot before.  Every in-edge of node ``(i, q)``
# carries ``~c_q`` and configurations only advance ``w -> o -> c``, so a
# word has at most ``2|V| + 1`` events, whatever ``|s|``.


def _children(
    out_edges: list[list[tuple[VariableConfiguration, int]]],
    states: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """``(letter, successor set)`` pairs of ``states``, letters ascending."""
    by_letter: dict[tuple[int, ...], list[int]] = {}
    for q in states:
        for label, dst in out_edges[q]:
            dsts = by_letter.get(label.states)
            if dsts is None:
                by_letter[label.states] = [dst]
            else:
                dsts.append(dst)
    return tuple(
        (letter, (dsts[0],) if len(dsts) == 1 else tuple(sorted(set(dsts))))
        for letter, dsts in sorted(by_letter.items())
    )


def _walk(
    out_edges: list[list[tuple[VariableConfiguration, int]]],
    states: tuple[int, ...],
    level: int,
    last_level: int,
    chains: dict,
    branches: dict,
) -> None:
    """Memoize the forced stretch that starts at ``(level, states)``.

    A set with one outgoing letter is *forced*; one with several is a
    *branch*.  The walk follows forced sets until it reaches a branch,
    the last level, or a set an earlier walk already covered (whose
    stretch it then joins).  Every forced set it passes maps in
    ``chains`` to ``(stretch, index)``: ``stretch`` is the shared
    ``[events, end set, end level]`` record and ``events[index - 1]``
    the letter run that set's slot belongs to.  A branch lands in
    ``branches`` with its children, so afterwards ``states`` is in
    exactly one of the two memos (or at the last level).
    """
    events: list[tuple[int, tuple[int, ...]]] = []
    stretch: list = [events, states, level]
    previous = None
    while level < last_level:
        joined = chains.get(states)
        if joined is not None:
            other, index = joined
            other_events = other[0]
            letter = other_events[index - 1][1]
            if letter != previous:
                events.append((level, letter))
            events.extend(other_events[index:])
            states, level = other[1], other[2]
            break
        edges = out_edges[states[0]] if len(states) == 1 else None
        if edges is not None and len(edges) == 1:
            label, dst = edges[0]
            letter, successor = label.states, (dst,)
        else:
            if states in branches:
                break
            children = _children(out_edges, states)
            if len(children) != 1:
                if not children:
                    raise AssertionError(
                        "pruned leveled NFA must complete every prefix"
                    )
                branches[states] = children
                break
            letter, successor = children[0]
        if letter != previous:
            events.append((level, letter))
            previous = letter
        chains[states] = (stretch, len(events))
        states = successor
        level += 1
    stretch[1] = states
    stretch[2] = level


def _decode_events(
    events: list[tuple[int, tuple[int, ...]]], names: tuple[str, ...]
) -> SpanTuple:
    """:func:`decode_configuration_word` on an event list.

    A variable's span starts and ends at slots where its state changes,
    and every such slot is an event, so scanning the events suffices.
    """
    spans = []
    for j, name in enumerate(names):
        start = 0
        for slot, letter in events:
            state = letter[j]
            if state != WAITING:
                if not start:
                    start = slot + 1
                if state == CLOSED:
                    spans.append((name, Span(start, slot + 1)))
                    break
        else:
            raise ValueError(
                f"configuration word never closes variable {name!r}"
            )
    return SpanTuple(spans)


def graph_tuples(graph: EvaluationGraph) -> Iterator[SpanTuple]:
    """Stream the tuples of a pruned ``A_G`` in radix order.

    A depth-first walk of the determinized ``A_G`` in ascending letter
    order.  All words have ``N + 1`` letters, so depth-first order is
    exactly the radix order :class:`RadixEnumerator` produces, tuple
    for tuple.  Two per-document memos, which die with the generator,
    make each determinized ``(level, S)`` cost its ``O(n^2)`` step at
    most once: ``branches`` holds the sorted children of every set with
    several letters, and ``chains`` (filled by :func:`_walk`) jumps a
    forced stretch in one step.  Collapsing forced stretches leaves a
    tree whose inner nodes all branch, so it has fewer inner nodes than
    leaves.  Beyond stepping each distinct ``(level, S)`` once, a tuple
    therefore costs work bounded by ``n`` and ``|V|``, independent of
    ``|s|``, and on tuple-dense documents the amortized delay is flat
    in ``|s|`` (benchmark E1c).  A single gap can still step a fresh
    stretch of ``O(|s|)`` levels, so the worst-case delay stays
    Theorem 3.3's ``O(n^2 |s|)``.
    """
    leveled = graph.leveled
    if leveled.is_empty:
        return
    last_level = leveled.n_slots
    out_edges = leveled.out_edges
    names = tuple(sorted(graph.variables))
    chains: dict = {}
    branches: dict = {}
    events: list[tuple[int, tuple[int, ...]]] = []
    # Frames of the branches on the current path:
    # [children, next child to try, len(events) at the branch, level].
    frames: list[list] = []
    states: tuple[int, ...] = (LeveledNFA.ROOT,)
    level = 0
    while True:
        # Descend along first children to the leftmost leaf below.
        while level < last_level:
            entry = chains.get(states)
            if entry is None:
                children = branches.get(states)
                if children is None:
                    _walk(out_edges, states, level, last_level, chains, branches)
                    continue
                frames.append([children, 1, len(events), level])
                letter, states = children[0]
                if not events or events[-1][1] != letter:
                    events.append((level, letter))
                level += 1
                continue
            stretch, index = entry
            run = stretch[0]
            letter = run[index - 1][1]
            if not events or events[-1][1] != letter:
                events.append((level, letter))
            if index < len(run):
                events.extend(run[index:])
            states, level = stretch[1], stretch[2]
        yield _decode_events(events, names)
        # Backtrack to the deepest branch with an untried child.
        while frames:
            frame = frames[-1]
            children, i, n_events, level = frame
            if i < len(children):
                frame[1] = i + 1
                del events[n_events:]
                letter, states = children[i]
                if not events or events[-1][1] != letter:
                    events.append((level, letter))
                level += 1
                break
            frames.pop()
        else:
            return


class SpannerEvaluator:
    """Enumerate ``[[A]](s)`` with polynomial delay.

    Usage::

        evaluator = SpannerEvaluator(automaton, "chocolate cookie")
        for mu in evaluator:          # streaming, polynomial delay
            ...
        evaluator.count()             # distinct-tuple count without
                                      # materializing the tuples

    The constructor performs Theorem 3.3's preprocessing; it raises
    :class:`~repro.errors.NotFunctionalError` on non-functional input.

    The string-independent half of that preprocessing is factored into
    :class:`~repro.runtime.tables.AutomatonTables`; pass ``tables`` to
    reuse a precomputed set (``CompiledSpanner`` does this to amortize
    it across a document stream), otherwise a fresh one is built for
    this call.
    """

    def __init__(
        self,
        automaton: VSetAutomaton,
        s: str,
        *,
        tables: AutomatonTables | None = None,
    ):
        self.automaton = automaton
        self.string = s
        self.graph: EvaluationGraph = build_evaluation_graph(
            automaton, s, tables=tables
        )

    # -- Introspection ------------------------------------------------------
    @property
    def graph_nodes(self) -> int:
        return self.graph.leveled.n_nodes

    @property
    def graph_edges(self) -> int:
        return self.graph.leveled.n_edges

    def is_empty(self) -> bool:
        """True iff ``[[A]](s)`` is empty — O(1) after preprocessing."""
        return self.graph.leveled.is_empty

    def count(self, cap: int | None = None) -> int:
        """Number of distinct tuples (without decoding them)."""
        return self.graph.leveled.count_words(cap=cap)

    # -- Enumeration -----------------------------------------------------------
    def configuration_words(self) -> Iterator[tuple[VariableConfiguration, ...]]:
        """The raw words of ``L(A_G)`` in radix order (Algorithms 1–3)."""
        enumerator = RadixEnumerator(
            self.graph.leveled, lambda config: config.sort_key()
        )
        yield from enumerator

    def __iter__(self) -> Iterator[SpanTuple]:
        """The tuples, in the radix order of :meth:`configuration_words`."""
        return graph_tuples(self.graph)


def enumerate_tuples(automaton: VSetAutomaton, s: str) -> Iterator[SpanTuple]:
    """Stream the tuples of ``[[A]](s)`` (Theorem 3.3)."""
    yield from SpannerEvaluator(automaton, s)
