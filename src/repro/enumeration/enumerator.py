"""The public tuple enumerator (Theorem 3.3).

:class:`SpannerEvaluator` separates the two phases the theorem
distinguishes: the ``O(n^2 |s| + mn)`` preprocessing happens in the
constructor; iteration then yields each tuple of ``[[A]](s)`` exactly
once, in the radix order of configuration sequences.

Iteration runs :func:`walk_tuples`, an event-compressed walk of the
determinized ``A_G`` over a *level source*.  Every regex evaluator
walks memoized automaton-state sets
(:class:`~repro.enumeration.statesets.StateSetLevels`), on tables its
caller holds across documents or on one-off tables built for the
call; an equality query's evaluator walks the levels of its fused
product (:class:`~repro.runtime.equality.EqualityLevels`).  Neither
builds a graph.  :func:`count_tuples` counts over either source.  The
walk's worst-case delay is the theorem's ``O(n^2 |s|)``.  A word is
carried as the at most ``2|V| + 1`` slots where its letter changes,
and it ends at its all-``CLOSED`` letter, since no letter can change
after it.  On the state-set source the word whose letters are all
``WAITING`` jumps from one level where a marker can fire to the next,
using the live pass's record of those levels.  Past the forward and
live passes, a document on that source then pays only for the levels
where some variable is open on the word being walked, plus work
proportional to its tuples times ``|V|``: with short captures,
nothing grows with ``|s|`` (benchmark E1e).  The equality source
steps the all-``WAITING`` word level by level.  The paper's pruned
``A_G`` (:func:`~repro.enumeration.graph.build_evaluation_graph`) and
its Algorithms 1–3 (:class:`~repro.automata.leveled.RadixEnumerator`
plus :func:`decode_configuration_word`) remain the reference the walk
is tested against, and serve :attr:`SpannerEvaluator.graph` and
:meth:`SpannerEvaluator.configuration_words`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..spans import Span, SpanTuple, _span, _span_tuple
from ..automata.leveled import RadixEnumerator
from ..runtime.tables import AutomatonTables
from ..vset.automaton import VSetAutomaton
from ..vset.configurations import CLOSED, WAITING, VariableConfiguration
from .graph import EvaluationGraph, build_evaluation_graph
from .statesets import StateSetLevels

__all__ = [
    "SpannerEvaluator",
    "enumerate_tuples",
    "decode_configuration_word",
    "walk_tuples",
    "count_tuples",
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
# ``is_empty``, ``children_memos()``, ``children(states, level)`` and
# ``jumps()``.  The children of a set are its ``(letter, successor set)``
# pairs in ascending letter order; ``children_memos()`` returns one dict
# per level holding the children known so far, which the walk reads
# inline, and ``children(states, level)`` computes, memoizes and returns
# the children of a set missing there.  ``jumps()`` lists the silent
# stretches of the all-``WAITING`` word as ``(level, set, end level, end
# set)``: each level from ``level`` up to ``end level`` has one child,
# with the all-``WAITING`` letter (none for a source that steps them).
# Two sources exist:
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


def _walk(
    children,
    memos: list[dict],
    chains: list[dict],
    states: object,
    level: int,
    last_level: int,
    kids: tuple,
    closed: tuple[int, ...],
) -> None:
    """Memoize the forced stretch that starts at ``(level, states)``.

    ``kids`` are the children of ``states``, which the caller has read.

    A set with one outgoing letter is *forced*; one with several is a
    *branch*.  The walk follows forced sets until it reaches a branch,
    the last level, a set an earlier walk already covered (whose
    stretch it then joins, copying that stretch's events from the join
    point on), or the all-``CLOSED`` letter ``closed``, after which the
    letter cannot change: the stretch then ends at the last level.
    Every forced set it passes maps in ``chains[level]`` to
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
            if letter == closed:
                chains[level][states] = (stretch, len(events))
                states, level = successor, last_level
                break
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
    ``names`` ascend, so the pairs go straight into a
    :class:`SpanTuple`, with no re-sort.
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
                    spans.append((name, _span(start, slot + 1)))
                    break
        else:
            raise ValueError(
                f"configuration word never closes variable {name!r}"
            )
    return _span_tuple(tuple(spans))


def walk_tuples(source) -> Iterator[SpanTuple]:
    """Stream the tuples of a level source in radix order.

    A depth-first walk of the determinized ``A_G`` in ascending letter
    order.  All words have ``N + 1`` letters, so depth-first order is
    exactly the radix order :class:`RadixEnumerator` produces, tuple
    for tuple.  The per-level ``chains`` memo (filled by :func:`_walk`,
    dying with the generator) jumps a forced stretch in one step, and
    the source's per-level children memos hold each set's children, so
    each determinized ``(level, S)`` costs its ``O(n^2)`` step at most
    once per document — and on the state-set source, at most once per
    memo across documents.

    Two rules skip levels where no letter can change.  Configurations
    only advance ``w -> o -> c`` and every set the walk visits is live,
    so once a word's latest letter is all-``CLOSED`` the word is
    complete: the walk yields it without stepping the remaining levels
    (a Boolean head's ``()`` letter yields after its first event).  And
    the source's :meth:`jumps` seed ``chains`` with the silent
    stretches of the all-``WAITING`` word, so the walk lands on the next
    level where a marker can fire in one step.  Only the state-set
    source has jumps; the equality source returns none.

    A tuple therefore costs its branches, which all change a letter,
    plus its at most ``2|V| + 1`` events and their decode.  Collapsing
    forced stretches leaves a tree whose inner nodes all branch, so it
    has fewer inner nodes than leaves.  On the state-set source the
    only stretches still stepped level by level are those where some
    variable is open, each ``(level, S)`` once per document; with short
    captures a document costs its forward and live passes plus work
    proportional to tuples times ``|V|`` (benchmark E1e), and on
    tuple-dense documents the amortized delay is flat in ``|s|``
    (benchmark E1c).  A single gap can still step a fresh open stretch
    of ``O(|s|)`` levels, so the worst-case delay stays Theorem 3.3's
    ``O(n^2 |s|)``.
    """
    if source.is_empty:
        return
    last_level = source.n_slots
    children = source.children
    memos = source.children_memos()
    names = tuple(sorted(source.variables))
    closed = (CLOSED,) * len(names)
    chains: list[dict] = [{} for _ in range(last_level)]
    # A jump is a one-event stretch: the all-WAITING letter, unchanged
    # from ``level`` up to ``end_level``.
    waiting = (WAITING,) * len(names)
    for level, start, end_level, end in source.jumps():
        chains[level][start] = ([[(level, waiting)], end, end_level], 1)
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
                    _walk(
                        children, memos, chains, states, level, last_level,
                        kids, closed,
                    )
                    continue
                if not kids:
                    raise AssertionError(
                        "pruned leveled NFA must complete every prefix"
                    )
                frames.append([kids, 1, len(events), level])
                letter, states = kids[0]
                level += 1
                if not events or events[-1][1] != letter:
                    events.append((level - 1, letter))
                    if letter == closed:
                        break
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
                level += 1
                if not events or events[-1][1] != letter:
                    events.append((level - 1, letter))
                    if letter == closed:
                        level = last_level
                break
            frames.pop()
        else:
            return


def count_tuples(source, cap: int | None = None) -> int:
    """Distinct tuples of a level source: a per-level DP over its children.

    Words, not paths, as :meth:`LeveledNFA.count_words` counts them,
    with the same ``cap`` contract: the result is ``min(count, cap)``.
    A path whose letter turns all-``CLOSED`` continues as exactly one
    word, so it joins a running total and leaves the frontier.
    """
    if source.is_empty:
        return 0
    children = source.children
    memos = source.children_memos()
    closed = (CLOSED,) * len(source.variables)
    done = 0
    frontier = {source.root: 1}
    for level in range(source.n_slots):
        memo = memos[level]
        nxt: dict = {}
        for states, paths in frontier.items():
            kids = memo.get(states)
            if kids is None:
                kids = children(states, level)
            for letter, successor in kids:
                if letter == closed:
                    done += paths
                else:
                    nxt[successor] = nxt.get(successor, 0) + paths
        frontier = nxt
        if cap is not None and done + sum(frontier.values()) >= cap:
            return cap
        if not frontier:
            break
    return done + sum(frontier.values())


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
    :class:`~repro.runtime.tables.AutomatonTables`.  A caller that
    passes ``tables`` holds them across documents (``CompiledSpanner``
    does, to amortize them over a stream); without ``tables`` a one-off
    set is built for this call — the cold path.  Either way the
    evaluator walks state sets
    (:class:`~repro.enumeration.statesets.StateSetLevels`) over the
    memos of its tables, which on shared tables serve every later
    document and on one-off tables die with the evaluator.  The pruned
    ``A_G`` is built on those same tables only if :attr:`graph` or
    :meth:`configuration_words` is read.  :meth:`over_levels` wraps a
    level source built elsewhere (an equality query's fused product),
    with the automaton compiled only when read.
    """

    def __init__(
        self,
        automaton: VSetAutomaton,
        s: str,
        *,
        tables: AutomatonTables | None = None,
    ):
        if tables is None:
            tables = AutomatonTables(automaton)
        self._automaton: VSetAutomaton | None = automaton
        self._build: Callable[[], VSetAutomaton] | None = None
        self.string = s
        self._tables: AutomatonTables | None = tables
        self._graph: EvaluationGraph | None = None
        self._levels = StateSetLevels(tables, s)

    @classmethod
    def over_levels(
        cls, levels, s: str, build: Callable[[], VSetAutomaton]
    ) -> "SpannerEvaluator":
        """An evaluator walking ``levels``, a level source for ``s``.

        ``build()`` must return an automaton with the same tuples on
        ``s``; it runs only when :attr:`automaton`, :attr:`graph` or
        :meth:`configuration_words` is read, and the graph is then built
        on one-off tables.
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
        """The pruned ``A_G`` (built on first read)."""
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
        return self._levels.is_empty

    def count(self, cap: int | None = None) -> int:
        """Number of distinct tuples (without decoding them)."""
        return count_tuples(self._levels, cap)

    # -- Enumeration -----------------------------------------------------------
    def configuration_words(self) -> Iterator[tuple[VariableConfiguration, ...]]:
        """The raw words of ``L(A_G)`` in radix order (Algorithms 1–3)."""
        enumerator = RadixEnumerator(
            self.graph.leveled, lambda config: config.sort_key()
        )
        yield from enumerator

    def __iter__(self) -> Iterator[SpanTuple]:
        """The tuples, in the radix order of :meth:`configuration_words`."""
        return walk_tuples(self._levels)


def enumerate_tuples(automaton: VSetAutomaton, s: str) -> Iterator[SpanTuple]:
    """Stream the tuples of ``[[A]](s)`` (Theorem 3.3)."""
    yield from SpannerEvaluator(automaton, s)
