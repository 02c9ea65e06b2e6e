"""The public tuple enumerator (Theorem 3.3).

:class:`SpannerEvaluator` separates the two phases the theorem
distinguishes: the ``O(n^2 |s| + mn)`` preprocessing happens in the
constructor; iteration then yields each tuple of ``[[A]](s)`` exactly
once, in the radix order of configuration sequences.

Iteration runs :func:`walk_tuples`, an event-compressed walk of the
determinized ``A_G`` over a *level source*.  The cold evaluator's
source is the pruned ``A_G`` itself (:class:`GraphLevels`, also
:func:`graph_tuples`); an evaluator over shared tables walks memoized
automaton-state sets instead
(:class:`~repro.enumeration.statesets.StateSetLevels`), and an
equality query's evaluator walks the levels of its fused product
(:class:`~repro.runtime.equality.EqualityLevels`); neither builds a
graph.  :func:`count_tuples` counts over any source.  The walk's
worst-case delay is the theorem's ``O(n^2 |s|)``, but its amortized
delay does not grow with ``|s|``: each determinized state set is
stepped once per document, and on top of that a tuple
costs work bounded by the automaton (``n`` states, ``|V|``
variables), because a word is carried as the at most ``2|V| + 1``
slots where its letter changes.  The paper's Algorithms 1–3
(:class:`~repro.automata.leveled.RadixEnumerator` plus
:func:`decode_configuration_word`) remain the reference the walk is
tested against, and serve :meth:`SpannerEvaluator.configuration_words`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..spans import Span, SpanTuple
from ..automata.leveled import LeveledNFA, RadixEnumerator
from ..runtime.tables import AutomatonTables
from ..vset.automaton import VSetAutomaton
from ..vset.configurations import CLOSED, WAITING, VariableConfiguration
from .graph import EvaluationGraph, build_evaluation_graph
from .statesets import StateSetLevels

__all__ = [
    "SpannerEvaluator",
    "enumerate_tuples",
    "decode_configuration_word",
    "graph_tuples",
    "walk_tuples",
    "count_tuples",
    "GraphLevels",
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
# The walk runs over a *level source*: an object with ``root`` (the set at
# level 0), ``n_slots`` (levels below the root, ``N + 1``), ``variables``,
# ``is_empty``, ``children_memos()`` and ``children(states, level)``.  The
# children of a set are its ``(letter, successor set)`` pairs in ascending
# letter order; ``children_memos()`` returns one dict per level holding
# the children known so far, which the walk reads inline, and
# ``children(states, level)`` computes, memoizes and returns the children
# of a set missing there.  Three sources exist: the pruned ``A_G``
# (:class:`GraphLevels`, whose sets are sorted tuples of graph nodes),
# :class:`~repro.enumeration.statesets.StateSetLevels` (whose sets are
# interned automaton-state sets) and
# :class:`~repro.runtime.equality.EqualityLevels` (whose sets are sorted
# tuples of fused equality-product states).  A letter is a
# configuration's ``states`` tuple: all configurations of one automaton
# share their variable tuple, so ``states`` identifies the letter and its
# natural tuple order is the radix order ``<_K``
# (``VariableConfiguration.sort_key``).  A word is an *event list* of
# ``(slot, letter)`` pairs, one per slot where the letter differs from the
# slot before.  Every in-edge of node ``(i, q)`` carries ``~c_q`` and
# configurations only advance ``w -> o -> c``, so a word has at most
# ``2|V| + 1`` events, whatever ``|s|``.


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


class GraphLevels:
    """A pruned ``A_G`` as a level source for :func:`walk_tuples`.

    A set is a sorted tuple of graph nodes; node ids are unique to their
    level, so a set names its level too, and one per-document dict
    memoizes the children of every level.  :meth:`children_memos` fills
    it upfront for every single node with a single edge (most nodes), so
    a forced step of the walk is a dict read, not a call.
    """

    __slots__ = ("out_edges", "n_slots", "variables", "is_empty", "_memo")

    root = (LeveledNFA.ROOT,)

    def __init__(self, graph: EvaluationGraph):
        leveled = graph.leveled
        self.out_edges = leveled.out_edges
        self.n_slots = leveled.n_slots
        self.variables = graph.variables
        self.is_empty = leveled.is_empty
        self._memo: dict = {}

    def children_memos(self) -> list[dict]:
        memo = self._memo
        for node, edges in enumerate(self.out_edges):
            if len(edges) == 1:
                label, dst = edges[0]
                memo[(node,)] = ((label.states, (dst,)),)
        return [memo] * self.n_slots

    def children(self, states: tuple[int, ...], level: int) -> tuple:
        found = self._memo[states] = _children(self.out_edges, states)
        return found


def _walk(
    children,
    memos: list[dict],
    chains: list[dict],
    states: object,
    level: int,
    last_level: int,
    kids: tuple,
) -> None:
    """Memoize the forced stretch that starts at ``(level, states)``.

    ``kids`` are the children of ``states``, which the caller has read.

    A set with one outgoing letter is *forced*; one with several is a
    *branch*.  The walk follows forced sets until it reaches a branch,
    the last level, or a set an earlier walk already covered (whose
    stretch it then joins, copying that stretch's events from the join
    point on).  Every forced set it passes maps in ``chains[level]`` to
    ``(stretch, index)``: ``stretch`` is the shared ``[events, end set,
    end level]`` record and ``events[index - 1]`` the letter run that
    set's slot belongs to.
    """
    events: list[tuple[int, tuple[int, ...]]] = []
    stretch: list = [events, states, level]
    previous = None
    while level < last_level:
        joined = chains[level].get(states)
        if joined is not None:
            other, index = joined
            other_events = other[0]
            letter = other_events[index - 1][1]
            if letter != previous:
                events.append((level, letter))
            events.extend(other_events[index:])
            states, level = other[1], other[2]
            break
        if kids is None:
            kids = memos[level].get(states)
            if kids is None:
                kids = children(states, level)
        if len(kids) != 1:
            if not kids:
                raise AssertionError(
                    "pruned leveled NFA must complete every prefix"
                )
            break
        letter, successor = kids[0]
        if letter != previous:
            events.append((level, letter))
            previous = letter
        chains[level][states] = (stretch, len(events))
        states = successor
        level += 1
        kids = None
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


def walk_tuples(source) -> Iterator[SpanTuple]:
    """Stream the tuples of a level source in radix order.

    A depth-first walk of the determinized ``A_G`` in ascending letter
    order.  All words have ``N + 1`` letters, so depth-first order is
    exactly the radix order :class:`RadixEnumerator` produces, tuple
    for tuple.  The per-level ``chains`` memo (filled by :func:`_walk`,
    dying with the generator) jumps a forced stretch in one step, and
    the source's per-level children memos hold each set's children, so
    each determinized
    ``(level, S)`` costs its ``O(n^2)`` step at most once per document —
    and on the state-set source, at most once per memo across documents.
    Collapsing forced stretches leaves a tree whose inner nodes all
    branch, so it has fewer inner nodes than leaves.  Beyond stepping
    each distinct ``(level, S)`` once, a tuple therefore costs work
    bounded by ``n`` and ``|V|``, independent of ``|s|``, and on
    tuple-dense documents the amortized delay is flat in ``|s|``
    (benchmark E1c).  A single gap can still step a fresh stretch of
    ``O(|s|)`` levels, so the worst-case delay stays Theorem 3.3's
    ``O(n^2 |s|)``.
    """
    if source.is_empty:
        return
    last_level = source.n_slots
    children = source.children
    memos = source.children_memos()
    names = tuple(sorted(source.variables))
    chains: list[dict] = [{} for _ in range(last_level)]
    events: list[tuple[int, tuple[int, ...]]] = []
    # Frames of the branches on the current path:
    # [children, next child to try, len(events) at the branch, level].
    frames: list[list] = []
    states = source.root
    level = 0
    while True:
        # Descend along first children to the leftmost leaf below.
        while level < last_level:
            entry = chains[level].get(states)
            if entry is None:
                kids = memos[level].get(states)
                if kids is None:
                    kids = children(states, level)
                if len(kids) == 1:
                    _walk(children, memos, chains, states, level, last_level, kids)
                    continue
                if not kids:
                    raise AssertionError(
                        "pruned leveled NFA must complete every prefix"
                    )
                frames.append([kids, 1, len(events), level])
                letter, states = kids[0]
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
            kids, i, n_events, level = frame
            if i < len(kids):
                frame[1] = i + 1
                del events[n_events:]
                letter, states = kids[i]
                if not events or events[-1][1] != letter:
                    events.append((level, letter))
                level += 1
                break
            frames.pop()
        else:
            return


def count_tuples(source, cap: int | None = None) -> int:
    """Distinct tuples of a level source: a per-level DP over its children.

    Words, not paths, as :meth:`LeveledNFA.count_words` counts them,
    with the same ``cap`` contract: the result is ``min(count, cap)``.
    """
    if source.is_empty:
        return 0
    children = source.children
    memos = source.children_memos()
    frontier = {source.root: 1}
    for level in range(source.n_slots):
        memo = memos[level]
        nxt: dict = {}
        for states, paths in frontier.items():
            kids = memo.get(states)
            if kids is None:
                kids = children(states, level)
            for _letter, successor in kids:
                nxt[successor] = nxt.get(successor, 0) + paths
        frontier = nxt
        if cap is not None and sum(frontier.values()) >= cap:
            return cap
    return sum(frontier.values())


def graph_tuples(graph: EvaluationGraph) -> Iterator[SpanTuple]:
    """Stream the tuples of a pruned ``A_G`` in radix order.

    :func:`walk_tuples` over :class:`GraphLevels`: the reference-path
    counterpart of the state-set source, same walk, same tuples.
    """
    return walk_tuples(GraphLevels(graph))


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
    :class:`~repro.runtime.tables.AutomatonTables`.  Without ``tables``
    a one-off set is built for this call and the constructor builds the
    pruned ``A_G`` (:func:`build_evaluation_graph`) — the cold path.  A
    caller that passes ``tables`` holds them across documents
    (``CompiledSpanner`` does, to amortize them over a stream), so the
    evaluator runs the state-set source instead
    (:class:`~repro.enumeration.statesets.StateSetLevels`), whose memos
    live on those tables and serve every later document; there the
    ``A_G`` is built only if :attr:`graph` or
    :meth:`configuration_words` is read.  Both paths yield the same
    tuples in the same order.  :meth:`over_levels` wraps a level source
    built elsewhere (an equality query's fused product), with the
    automaton compiled only when read.
    """

    def __init__(
        self,
        automaton: VSetAutomaton,
        s: str,
        *,
        tables: AutomatonTables | None = None,
    ):
        self._automaton: VSetAutomaton | None = automaton
        self._build: Callable[[], VSetAutomaton] | None = None
        self.string = s
        self._tables = tables
        self._graph: EvaluationGraph | None = None
        self._levels = None
        if tables is None:
            self._graph = build_evaluation_graph(automaton, s)
        else:
            self._levels = StateSetLevels(tables, s)

    @classmethod
    def over_levels(
        cls, levels, s: str, build: Callable[[], VSetAutomaton]
    ) -> "SpannerEvaluator":
        """An evaluator walking ``levels``, a level source for ``s``.

        ``build()`` must return an automaton with the same tuples on
        ``s``; it runs only when :attr:`automaton`, :attr:`graph` or
        :meth:`configuration_words` is read, and the graph is then the
        cold one.
        """
        evaluator = cls.__new__(cls)
        evaluator._automaton = None
        evaluator._build = build
        evaluator.string = s
        evaluator._tables = None
        evaluator._graph = None
        evaluator._levels = levels
        return evaluator

    # -- Introspection ------------------------------------------------------
    @property
    def automaton(self) -> VSetAutomaton:
        """The evaluated automaton (built on first read if the evaluator
        comes from :meth:`over_levels`)."""
        if self._automaton is None:
            assert self._build is not None
            self._automaton = self._build()
        return self._automaton

    @property
    def graph(self) -> EvaluationGraph:
        """The pruned ``A_G`` (built on first read on the state-set path)."""
        if self._graph is None:
            self._graph = build_evaluation_graph(
                self.automaton, self.string, tables=self._tables
            )
        return self._graph

    @property
    def graph_nodes(self) -> int:
        return self.graph.leveled.n_nodes

    @property
    def graph_edges(self) -> int:
        return self.graph.leveled.n_edges

    def is_empty(self) -> bool:
        """True iff ``[[A]](s)`` is empty — O(1) after preprocessing."""
        if self._levels is not None:
            return self._levels.is_empty
        return self.graph.leveled.is_empty

    def count(self, cap: int | None = None) -> int:
        """Number of distinct tuples (without decoding them)."""
        if self._levels is not None:
            return count_tuples(self._levels, cap)
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
        if self._levels is not None:
            return walk_tuples(self._levels)
        return graph_tuples(self.graph)


def enumerate_tuples(automaton: VSetAutomaton, s: str) -> Iterator[SpanTuple]:
    """Stream the tuples of ``[[A]](s)`` (Theorem 3.3)."""
    yield from SpannerEvaluator(automaton, s)
