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
after it.  Both sources list *jumps*, stretches of levels where a set
has one child that keeps the letter, and the walk crosses each in one
step.  On the state-set source the word whose letters are all
``WAITING`` jumps from one level where a marker can fire to the next,
using the live pass's record of those levels.  Past the forward and
live passes, a document on that source then pays only for the levels
where some variable is open on the word being walked, plus work
proportional to its tuples times ``|V|``: with short captures,
nothing grows with ``|s|`` (benchmark E1e).  On the equality source a
silent stretch of the product (a variable waiting on a closed one's
next occurrence, say) is one product id, and the walk jumps it.  A
word reaches its caller through a decoder built once per walk for the
walk's head and specialised to ``|V|`` (:func:`event_tuples`, or
:func:`event_offsets` for the span positions the serving fleet ships):
it reads the word's events and builds the spans and the tuple inline.
The paper's pruned
``A_G`` (:func:`~repro.enumeration.graph.build_evaluation_graph`) and
its Algorithms 1–3 (:class:`~repro.automata.leveled.RadixEnumerator`
plus :func:`decode_configuration_word`) remain the reference the walk
is tested against, and serve :attr:`SpannerEvaluator.graph` and
:meth:`SpannerEvaluator.configuration_words`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..spans import (
    Span,
    SpanTuple,
    _invalid_span,
    _new,
    _set_end,
    _set_items,
    _set_start,
    _tuple_of_positions,
)
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
    "event_tuples",
    "event_offsets",
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
            raise _never_closes(var)
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
# the children of a set missing there.  ``jumps()`` lists silent
# stretches as ``(level, set, end level, end set, letter)``: each level
# from ``level`` up to ``end level`` has one child, with ``letter``, so
# the walk lands on ``end set`` at ``end level`` in one step.
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


def _never_closes(name: str) -> ValueError:
    return ValueError(f"configuration word never closes variable {name!r}")


def event_tuples(names: tuple[str, ...]) -> Callable[[list], SpanTuple]:
    """The decoder of event lists into :class:`SpanTuple` s over ``names``.

    :func:`decode_configuration_word` on an event list: a variable's
    span starts and ends at slots where its state changes, and every
    such slot is an event, so scanning the events suffices.  ``names``
    ascend, so the pairs go straight into the tuple, with no re-sort.
    :func:`walk_tuples` builds one decoder per walk, specialised to
    ``|V|``: a Boolean head's gives a fresh empty tuple, a one-variable
    head's scans the events for one start and one end, and a
    two-variable head's reads both spans in one pass over the events.
    Larger heads take :func:`event_offsets`' positions, which scan the
    events once per variable.  Every decoder builds its spans and tuple
    inline, with the private constructors of :mod:`repro.spans` and no
    call per span, keeps the ``1 <= start <= end`` check
    (:class:`~repro.errors.InvalidSpanError`) and raises
    :class:`ValueError` for a variable that never closes.
    """
    new, set_start, set_end, set_items = _new, _set_start, _set_end, _set_items
    closed = CLOSED
    if not names:

        def decode(events):
            mu = new(SpanTuple)
            set_items(mu, ())
            return mu

    elif len(names) == 1:
        (name,) = names

        def decode(events):
            start = 0
            for slot, (state,) in events:
                if state:
                    if not start:
                        start = slot + 1
                    if state == closed:
                        break
            else:
                raise _never_closes(name)
            end = slot + 1
            if start < 1 or end < start:
                raise _invalid_span(start, end)
            span = new(Span)
            set_start(span, start)
            set_end(span, end)
            mu = new(SpanTuple)
            set_items(mu, ((name, span),))
            return mu

    elif len(names) == 2:
        first, second = names

        def decode(events):
            start0 = start1 = 0
            end0 = end1 = None
            for slot, (state0, state1) in events:
                if state0 and end0 is None:
                    if not start0:
                        start0 = slot + 1
                    if state0 == closed:
                        end0 = slot + 1
                if state1 and end1 is None:
                    if not start1:
                        start1 = slot + 1
                    if state1 == closed:
                        end1 = slot + 1
            if end0 is None:
                raise _never_closes(first)
            if start0 < 1 or end0 < start0:
                raise _invalid_span(start0, end0)
            if end1 is None:
                raise _never_closes(second)
            if start1 < 1 or end1 < start1:
                raise _invalid_span(start1, end1)
            span0 = new(Span)
            set_start(span0, start0)
            set_end(span0, end0)
            span1 = new(Span)
            set_start(span1, start1)
            set_end(span1, end1)
            mu = new(SpanTuple)
            set_items(mu, ((first, span0), (second, span1)))
            return mu

    else:
        offsets = event_offsets(names)

        def decode(events):
            return _tuple_of_positions(names, offsets(events))

    return decode


def event_offsets(names: tuple[str, ...]) -> Callable[[list], list[int]]:
    """:func:`event_tuples` as bare ints: ``start, end`` per name.

    The decoder gives the ``2|V|`` span positions in ``names`` order,
    read off the event list as :func:`event_tuples`' decoder reads
    them, with no :class:`Span` or :class:`SpanTuple` built, and it is
    specialised to ``|V|`` the same way.  A Boolean head gives ``[]``.
    This is the form the serving fleet ships; the driver rebuilds the
    tuples (and checks the spans) on its side.
    """
    closed = CLOSED
    if not names:

        def decode(events):
            return []

    elif len(names) == 1:
        (name,) = names

        def decode(events):
            start = 0
            for slot, (state,) in events:
                if state:
                    if not start:
                        start = slot + 1
                    if state == closed:
                        return [start, slot + 1]
            raise _never_closes(name)

    elif len(names) == 2:
        first, second = names

        def decode(events):
            start0 = start1 = 0
            end0 = end1 = None
            for slot, (state0, state1) in events:
                if state0 and end0 is None:
                    if not start0:
                        start0 = slot + 1
                    if state0 == closed:
                        end0 = slot + 1
                if state1 and end1 is None:
                    if not start1:
                        start1 = slot + 1
                    if state1 == closed:
                        end1 = slot + 1
            if end0 is None:
                raise _never_closes(first)
            if end1 is None:
                raise _never_closes(second)
            return [start0, end0, start1, end1]

    else:

        def decode(events):
            offsets = []
            for j, name in enumerate(names):
                start = 0
                for slot, letter in events:
                    state = letter[j]
                    if state:
                        if not start:
                            start = slot + 1
                        if state == closed:
                            offsets.append(start)
                            offsets.append(slot + 1)
                            break
                else:
                    raise _never_closes(name)
            return offsets

    return decode


def walk_tuples(source, decoder: Callable = event_tuples) -> Iterator:
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
    the source's :meth:`jumps` seed ``chains`` with its silent
    stretches, each a one-event run of its letter: the state-set
    source's all-``WAITING`` word lands on the next level where a
    marker can fire, and the equality source's stretch ids on the level
    before their own, in one step.

    ``decoder(names)`` builds the walk's decoder once, for ``names``,
    the source's variables in ascending order, and each word is yielded
    as ``decode(events)``.  The default, :func:`event_tuples`, builds
    the :class:`SpanTuple`; :func:`event_offsets` gives the word's span
    positions as ints instead.  Both specialise their decoder to
    ``|V|``.

    The walk keeps a stack of the untried children of the branches on
    its path.  A branch pushes its children after the first, in
    descending letter order, when the walk enters it, and a backtrack
    pops the deepest one, so a branch is off the stack as soon as its
    last child is taken, and a backtrack is one pop.  A tuple therefore
    costs its branches, which all change a letter, plus its at most
    ``2|V| + 1`` events and their decode.  Collapsing forced stretches
    leaves a tree whose inner nodes all branch, so it has fewer inner
    nodes than leaves.  On the state-set source the
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
    decode = decoder(names)
    closed = (CLOSED,) * len(names)
    chains: list[dict] = [{} for _ in range(last_level)]
    # A jump is a one-event stretch: its letter, unchanged from
    # ``level`` up to ``end_level``.
    for level, start, end_level, end, letter in source.jumps():
        chains[level][start] = ([[(level, letter)], end, end_level], 1)
    events: list[tuple[int, tuple[int, ...]]] = []
    # The untried children of the branches on the path, deepest last:
    # (child, len(events) at the branch, its level, its last letter).
    pending: list[tuple] = []
    states = source.root
    level = 0
    previous = None  # the letter of the last event
    while True:
        # Descend along first children to the leftmost leaf below.
        while level < last_level:
            entry = chains[level].get(states)
            if entry is None:
                kids = memos[level].get(states)
                if kids is None:
                    kids = children(states, level)
                width = len(kids)
                if width == 2:
                    pending.append((kids[1], len(events), level, previous))
                elif width == 1:
                    _walk(
                        children, memos, chains, states, level, last_level,
                        kids, closed,
                    )
                    continue
                elif width:
                    n_events = len(events)
                    for kid in kids[:0:-1]:
                        pending.append((kid, n_events, level, previous))
                else:
                    raise AssertionError(
                        "pruned leveled NFA must complete every prefix"
                    )
                letter, states = kids[0]
                level += 1
                if letter != previous:
                    events.append((level - 1, letter))
                    previous = letter
                    if letter == closed:
                        break
                continue
            stretch, index = entry
            run = stretch[0]
            letter = run[index - 1][1]
            if letter != previous:
                events.append((level, letter))
            if index < len(run):
                events.extend(run[index:])
            previous = run[-1][1]
            states, level = stretch[1], stretch[2]
        yield decode(events)
        # Backtrack: take the deepest branch's next child.
        if not pending:
            return
        (letter, states), n_events, level, previous = pending.pop()
        del events[n_events:]
        level += 1
        if letter != previous:
            events.append((level - 1, letter))
            previous = letter
            if letter == closed:
                level = last_level


def count_tuples(source, cap: int | None = None) -> int:
    """Distinct tuples of a level source: a per-level DP over its children.

    Words, not paths, as :meth:`LeveledNFA.count_words` counts them,
    with the same ``cap`` contract: the result is ``min(count, cap)``.
    A path whose letter turns all-``CLOSED`` continues as exactly one
    word, so it joins a running total and leaves the frontier.  A
    frontier set that starts one of the source's jumps moves straight
    to the jump's end level and set: every level in between has one
    child, so no word splits or ends there.
    """
    if source.is_empty:
        return 0
    children = source.children
    memos = source.children_memos()
    closed = (CLOSED,) * len(source.variables)
    jumps: dict[int, dict] = {}
    for level, start, end_level, end, _letter in source.jumps():
        jumps.setdefault(level, {})[start] = (end_level, end)
    # Per level ahead, the sets words reach there and how many words each.
    frontiers: dict[int, dict] = {0: {source.root: 1}}
    done = 0
    pending = 1  # words on the frontiers ahead
    for level in range(source.n_slots):
        frontier = frontiers.pop(level, None)
        if not frontier:
            continue
        memo = memos[level]
        jump = jumps.get(level)
        nxt = frontiers.setdefault(level + 1, {})
        for states, paths in frontier.items():
            pending -= paths
            if jump is not None:
                landing = jump.get(states)
                if landing is not None:
                    end_level, end = landing
                    ahead = frontiers.setdefault(end_level, {})
                    ahead[end] = ahead.get(end, 0) + paths
                    pending += paths
                    continue
            kids = memo.get(states)
            if kids is None:
                kids = children(states, level)
            for letter, successor in kids:
                if letter == closed:
                    done += paths
                else:
                    nxt[successor] = nxt.get(successor, 0) + paths
                    pending += paths
        if cap is not None and done + pending >= cap:
            return cap
        if not pending:
            break
    return done + pending


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
