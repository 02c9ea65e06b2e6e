"""Multi-query fusion by composition: one task serves many queries.

Every serving task names a tuple of member queries and serves one chunk
of documents to all of them — the UCQ perspective of §2.3/Theorem 3.11:
a union is answered by running each disjunct's own evaluator, its
tuples kept tagged with the query they came from, and a single query is
a union of one.  Serving a corpus to Q queries in one task ships,
decodes and dispatches it once instead of Q times.

Fusion is a composition, not a compiled artifact.  A worker holds each
registered query's engine in its engine table already; for every
evaluating task it composes a :class:`FusedEngine` out of the members'
engines.  Nothing new is compiled, pickled, shipped or stored, and
every member's tuple stream is its one-member stream, byte for byte,
because it *is* the member's own engine.

What the members share is what a task carries: one dispatch, one
document transport and decode, one result message per chunk.  The
engine groups its members into *fusion cohorts* (:func:`plan_cohorts`):

* ``sweep`` — :class:`AutomatonTables` members; per document each one
  runs the forward pass of its state-set evaluation
  (:class:`~repro.enumeration.statesets.StateSetLevels`, whose memos
  live on the member's tables and are shared with its solo engine)
  before any member is enumerated.  :func:`fused_sweep` (each
  member's pruned ``A_G``) stays only because the traced benchmark
  replay times it; no evaluation path runs it;
* ``equality`` — :class:`CompiledEqualityQuery` members, which share one
  per-document :class:`~repro.text.substrings.SubstringIndex` (the
  rolling-hash index dominates their per-document setup);
* ``solo`` — anything else streams through its own engine.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..enumeration.enumerator import event_offsets, event_tuples, walk_tuples
from ..enumeration.graph import EvaluationGraph, build_evaluation_graph
from ..enumeration.statesets import StateSetLevels
from ..errors import SchemaError
from ..spans import SpanTuple
from ..text.substrings import SubstringIndex
from .compiled import CompiledSpanner
from .equality import CompiledEqualityQuery
from .tables import AutomatonTables

__all__ = [
    "FusedQuery",
    "FusedEngine",
    "fused_sweep",
    "plan_cohorts",
]


def plan_cohorts(
    members: Sequence[tuple[str, object]],
) -> list[tuple[str, list[tuple[int, object]]]]:
    """Group members into fusion cohorts (see module docstring).

    ``members`` is the fused engine's ``(query_id, engine)`` list; the
    result pairs each cohort kind with ``(member_index, engine)``
    entries, member order preserved inside each cohort.  A
    :class:`CompiledSpanner` joins the ``sweep`` cohort as its tables.
    """
    cohorts: dict[str, list[tuple[int, object]]] = {}
    for index, (_qid, engine) in enumerate(members):
        if isinstance(engine, CompiledSpanner):
            engine = engine.tables
        if isinstance(engine, AutomatonTables):
            kind = "sweep"
        elif isinstance(engine, CompiledEqualityQuery):
            kind = "equality"
        else:
            kind = "solo"
        cohorts.setdefault(kind, []).append((index, engine))
    return [
        (kind, cohorts[kind])
        for kind in ("sweep", "equality", "solo")
        if kind in cohorts
    ]


def fused_sweep(
    entries: Sequence[tuple[int, AutomatonTables]], s: str
) -> dict[int, EvaluationGraph]:
    """Every sweep member's pruned evaluation graph for ``s``.

    Kept for the traced benchmark replay only (perfbench's ``graph``
    layer): ``entries`` pairs member indices with their compiled
    tables, and the result maps each member index to its pruned
    ``A_G`` — one
    :func:`~repro.enumeration.graph.build_evaluation_graph` call per
    member.  The radix enumeration of a graph decodes to exactly the
    member's production stream (:meth:`FusedEngine.streams`, which
    evaluates state sets and builds no graph), tuple for tuple.
    """
    return {
        member: build_evaluation_graph(tables.automaton, s, tables)
        for member, tables in entries
    }


def _equality_stream(
    engine: CompiledEqualityQuery,
    s: str,
    index: SubstringIndex,
    decoder: Callable,
) -> Iterator:
    """A lazy per-member equality stream sharing the document's index.

    Lazy on purpose: the per-document product BFS and level build run on
    first ``next()``, inside the consumer's per-member accounting
    window, so fleet-side fault attribution indicts the right member.
    """
    yield from walk_tuples(engine.levels(s, index=index), decoder)


class FusedQuery:
    """A fused query set: ``(query_id, engine)`` pairs sorted by id.

    Each engine is what the member's registration serves with
    (:class:`CompiledSpanner` or its :class:`AutomatonTables`,
    :class:`CompiledEqualityQuery`, ...).  :meth:`materialize` composes
    them into the evaluating :class:`FusedEngine`.
    """

    __slots__ = ("members",)

    def __init__(self, members: Sequence[tuple[str, object]]):
        if len(members) < 2:
            raise ValueError("a fused query needs at least 2 members")
        ids = [qid for qid, _ in members]
        if len(set(ids)) != len(ids):
            raise ValueError("fused member query ids must be distinct")
        self.members = tuple(sorted(members, key=lambda m: m[0]))

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(qid for qid, _ in self.members)

    def materialize(self) -> "FusedEngine":
        """The evaluating engine over the members' own engines."""
        return FusedEngine(self.members)

    def __repr__(self) -> str:
        return f"FusedQuery(members={list(self.member_ids)})"


class FusedEngine:
    """The members' own engines, composed to serve one task.

    Cohorts are planned once at construction; :meth:`streams` then
    yields one lazy tuple iterator per member (member order) per
    document, and :meth:`offset_streams` the same tuples as their span
    positions, the form the serving fleet ships.
    """

    __slots__ = ("member_ids", "heads", "_sweep", "_equality", "_solo")

    def __init__(self, members: Sequence[tuple[str, object]]):
        self.member_ids = tuple(qid for qid, _ in members)
        cohorts = dict(plan_cohorts(members))
        self._sweep = cohorts.get("sweep", [])
        self._equality = cohorts.get("equality", [])
        self._solo = cohorts.get("solo", [])
        #: Per member, its head's variable names in ascending order —
        #: the order of :meth:`offset_streams`' positions.  A solo
        #: member's head is read off its first tuple (``None`` before).
        self.heads: list[tuple[str, ...] | None] = [None] * len(members)
        for member, engine in self._sweep + self._equality:
            self.heads[member] = tuple(sorted(engine.variables))

    def streams(self, s: str) -> list[Iterator[SpanTuple]]:
        """One tuple iterator per member (member order) for document ``s``.

        The sweep members' forward passes run here, before any member is
        enumerated; their walks — and the equality members' per-document
        compilation — stay lazy in the returned iterators.
        """
        return self._streams(s, event_tuples)

    def offset_streams(self, s: str) -> list[Iterator[list[int]]]:
        """:meth:`streams` with each tuple as its ``2|V|`` span positions.

        A tuple is ``[start, end, ...]``, one pair per name of the
        member's :attr:`heads` entry (``[]`` for a Boolean head).  Sweep
        and equality members decode their walks straight to ints
        (:func:`~repro.enumeration.enumerator.event_offsets`); a solo
        member's tuples are read back out of its :class:`SpanTuple`
        objects.
        """
        return self._streams(s, event_offsets, self._solo_offsets)

    def _streams(
        self, s: str, decoder: Callable, solo: Callable | None = None
    ) -> list:
        out: list[Iterator] = [iter(())] * len(self.member_ids)
        for member, tables in self._sweep:
            out[member] = walk_tuples(StateSetLevels(tables, s), decoder)
        if self._equality:
            index = SubstringIndex(s)
            for member, engine in self._equality:
                out[member] = _equality_stream(engine, s, index, decoder)
        for member, engine in self._solo:
            stream = engine.stream(s)  # type: ignore[attr-defined]
            out[member] = stream if solo is None else solo(member, stream)
        return out

    def _solo_offsets(
        self, member: int, stream: Iterator[SpanTuple]
    ) -> Iterator[list[int]]:
        heads = self.heads
        for mu in stream:
            items = mu._items
            names = tuple(name for name, _ in items)
            if names != heads[member]:
                if heads[member] is not None:
                    raise SchemaError(
                        f"member {self.member_ids[member]!r} yielded tuples "
                        f"over {list(heads[member])} and {list(names)}"
                    )
                heads[member] = names
            yield [x for _, span in items for x in (span.start, span.end)]

    def __repr__(self) -> str:
        return (
            f"FusedEngine(members={len(self.member_ids)}, "
            f"sweep={len(self._sweep)}, "
            f"equality={len(self._equality)}, solo={len(self._solo)})"
        )
