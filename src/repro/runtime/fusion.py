"""One-pass multi-query fusion: many registered queries, one document scan.

The serving fleet registers many queries but evaluates each task with
exactly one query's engine, so a corpus served to Q queries is scanned
Q times.  This module fuses a registered query *set* into a single
engine — the ``merge_extractors`` idiom lifted to vset-automata, with
the UCQ perspective of §2.3/Theorem 3.11: a union whose disjuncts stay
tagged with the query they came from, evaluated in one pass and
demultiplexed on the way out.

The key construction is :func:`fused_sweep`: the per-document leveled
NFA construction of :func:`repro.enumeration.graph.build_evaluation_graph`
run for several compiled queries inside **one** loop over the document's
characters.  Each member keeps its own :class:`LeveledNFA` (its own
node-id space), and within a member the loop body is *verbatim* the
solo construction — nodes and edges are appended in identical order —
so each member's radix enumeration yields a byte-identical tuple stream
to a solo evaluation.  What is shared is the per-character framing:
one pass over ``s``, one frontier bookkeeping step per member per
character, members dropped from the live set the moment their frontier
dies (so a member that stops matching early costs O(its matched
prefix), exactly as it would solo).

Members that cannot join the sweep are grouped into *fusion cohorts*:

* ``sweep``/``static`` — :class:`AutomatonTables` members whose
  readable alphabet is statically known (all-``Chars`` predicates);
* ``sweep``/``dynamic`` — wildcard-alphabet tables members
  (``NotChars``/``AnyChar``); fused in their own sweep so a
  static-alphabet cohort's burst rows stay complete;
* ``equality`` — :class:`CompiledEqualityQuery` members, which compile
  a per-document automaton: they cannot share the leveled sweep, but
  they *do* share one per-document
  :class:`~repro.text.substrings.SubstringIndex` (the rolling-hash
  index dominates their per-document setup);
* ``solo`` — anything else falls back to its own engine, untouched.

:class:`FusedQuery` is the ship-to-workers artifact (member ids +
member artifacts, sorted by id, explicit pickle contract) and
:class:`FusedEngine` its worker-side materialization.  The fused
artifact-store key (:func:`fused_fingerprint`) hashes the *sorted
member payload fingerprints*, so a warm restart revives the fused
engine whenever the same member set is registered again, in any order.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

from ..automata.leveled import LeveledNFA
from ..enumeration.graph import EvaluationGraph
from ..enumeration.enumerator import graph_tuples
from ..spans import SpanTuple
from ..text.substrings import SubstringIndex
from .compiled import CompiledSpanner
from .equality import CompiledEqualityQuery
from .tables import AutomatonTables

__all__ = [
    "FusedQuery",
    "FusedEngine",
    "fused_sweep",
    "fused_fingerprint",
    "fused_query_id",
    "plan_cohorts",
    "plan_submission",
    "FUSED_ID_PREFIX",
]

#: Registry ids of fused pseudo-queries start with this marker so the
#: public surfaces (``queries``, ``health()``, the manifest) can filter
#: them out — a fused engine is fleet plumbing, not a registered query.
FUSED_ID_PREFIX = "fused:"


def fused_fingerprint(member_shas: Iterable[str]) -> str:
    """The artifact-store key of a fused engine.

    Hashes the *sorted* member payload fingerprints, so the key is
    independent of registration order and collides exactly when the
    member set (by compiled artifact bytes) is identical — which is
    when the fused engine is identical.
    """
    digest = hashlib.sha256(
        "\0".join(sorted(member_shas)).encode("ascii")
    ).hexdigest()
    return "f" + digest[:24]


def fused_query_id(member_shas: Iterable[str]) -> str:
    """The registry pseudo-id for a fused engine over these members."""
    digest = hashlib.sha256(
        "\0".join(sorted(member_shas)).encode("ascii")
    ).hexdigest()
    return FUSED_ID_PREFIX + digest[:16]


def plan_submission(
    member_ids: Sequence[str], *, fuse: bool = True
) -> tuple[str, tuple[str, ...]]:
    """The fused-vs-sequential decision point, shared by every caller.

    ``SpannerService.submit_all`` and single-query sessions
    (:class:`~repro.runtime.parallel.ParallelSpanner`) both route
    through this function so the decision is made in exactly one place:
    fusion pays off only when at least two members share the scan.

    Returns ``("fused", ids)`` or ``("sequential", ids)``.
    """
    ids = tuple(member_ids)
    if fuse and len(ids) >= 2:
        return ("fused", ids)
    return ("sequential", ids)


def plan_cohorts(
    members: Sequence[tuple[str, object]],
) -> list[tuple[str, list[tuple[int, object]]]]:
    """Group members into fusion cohorts (see module docstring).

    ``members`` is the fused engine's ``(query_id, artifact)`` list;
    the result pairs each cohort kind with ``(member_index, artifact)``
    entries, member order preserved inside each cohort.  Sweep members
    are split by :meth:`AutomatonTables.fusion_class` — compatible
    (static-alphabet) tables fuse eagerly into one sweep, wildcard
    tables into their own.
    """
    static: list[tuple[int, object]] = []
    dynamic: list[tuple[int, object]] = []
    equality: list[tuple[int, object]] = []
    solo: list[tuple[int, object]] = []
    for index, (_qid, artifact) in enumerate(members):
        if isinstance(artifact, CompiledSpanner):
            artifact = artifact.tables
        if isinstance(artifact, AutomatonTables):
            if artifact.fusion_class() == "static":
                static.append((index, artifact))
            else:
                dynamic.append((index, artifact))
        elif isinstance(artifact, CompiledEqualityQuery):
            equality.append((index, artifact))
        else:
            solo.append((index, artifact))
    cohorts: list[tuple[str, list[tuple[int, object]]]] = []
    if static:
        cohorts.append(("sweep-static", static))
    if dynamic:
        cohorts.append(("sweep-dynamic", dynamic))
    if equality:
        cohorts.append(("equality", equality))
    if solo:
        cohorts.append(("solo", solo))
    return cohorts


class _MemberSweep:
    """One member's in-flight state inside :func:`fused_sweep`."""

    __slots__ = ("member", "tables", "leveled", "node_of", "frontier")

    def __init__(self, member: int, tables: AutomatonTables, n_slots: int):
        self.member = member
        self.tables = tables
        self.leveled = LeveledNFA(n_slots)
        self.node_of: dict[int, int] = {}
        self.frontier: list[int] = []


def _finalize(state: _MemberSweep, n: int) -> EvaluationGraph:
    """The solo construction's epilogue: final lookup, prune, wrap."""
    final_node = state.node_of.get(state.tables.automaton.final)
    if final_node is not None:
        state.leveled.mark_accepting(final_node)
    state.leveled.prune()
    return EvaluationGraph(state.leveled, state.tables.variables, n + 1)


def fused_sweep(
    entries: Sequence[tuple[int, AutomatonTables]], s: str
) -> dict[int, EvaluationGraph]:
    """Build every member's pruned evaluation graph in one pass over ``s``.

    ``entries`` pairs member indices with their compiled tables; the
    result maps each member index to the same
    :class:`~repro.enumeration.graph.EvaluationGraph` the solo
    :func:`~repro.enumeration.graph.build_evaluation_graph` would build
    — node for node, edge for edge, in identical creation order — so
    downstream radix enumeration is byte-identical per member.  Members
    whose frontier dies are finalized immediately and dropped from the
    live set; the character loop ends as soon as no member is live.
    """
    n = len(s)
    graphs: dict[int, EvaluationGraph] = {}
    live: list[_MemberSweep] = []
    for member, tables in entries:
        state = _MemberSweep(member, tables, n + 1)
        if tables.is_empty:
            state.leveled.prune()
            graphs[member] = EvaluationGraph(
                state.leveled, tables.variables, n + 1
            )
            continue
        tables.require_all_closed_final()
        # Level 1, exactly as the solo construction builds it.
        configs = tables.configs
        level_of = state.leveled.level_of
        out_edges = state.leveled.out_edges
        root_edges = out_edges[LeveledNFA.ROOT]
        for q in tables.initial_ve:
            level_of.append(1)
            out_edges.append([])
            node = len(level_of) - 1
            state.node_of[q] = node
            root_edges.append((configs[q], node))
            state.frontier.append(q)
        if state.frontier:
            live.append(state)
        else:
            graphs[member] = _finalize(state, n)

    for position in range(1, n + 1):
        if not live:
            break
        ch = s[position - 1]
        next_level = position + 1
        survivors: list[_MemberSweep] = []
        for state in live:
            # Per member this block is the solo loop body verbatim;
            # only the enclosing character loop is shared.
            tables = state.tables
            steps = tables.burst_step(ch)
            configs = tables.configs
            level_of = state.leveled.level_of
            out_edges = state.leveled.out_edges
            node_of = state.node_of
            next_nodes: dict[int, int] = {}
            next_frontier: list[int] = []
            for p in state.frontier:
                succs = steps[p]
                if not succs:
                    continue
                src_edges = out_edges[node_of[p]]
                for q in succs:
                    dst = next_nodes.get(q)
                    if dst is None:
                        level_of.append(next_level)
                        out_edges.append([])
                        dst = len(level_of) - 1
                        next_nodes[q] = dst
                        next_frontier.append(q)
                    src_edges.append((configs[q], dst))
            state.node_of = next_nodes
            state.frontier = next_frontier
            if next_frontier:
                survivors.append(state)
            else:
                graphs[state.member] = _finalize(state, n)
        live = survivors

    for state in live:
        graphs[state.member] = _finalize(state, n)
    return graphs


def _equality_stream(
    engine: CompiledEqualityQuery, s: str, index: SubstringIndex
) -> Iterator[SpanTuple]:
    """A lazy per-member equality stream sharing the document's index.

    Lazy on purpose: the per-document compile (``compile_for``) runs on
    first ``next()``, inside the consumer's per-member accounting
    window, so fleet-side fault attribution indicts the right member.
    """
    yield from engine.evaluator(s, index=index)


class FusedQuery:
    """The ship-to-workers artifact of a fused query set.

    ``members`` is a tuple of ``(query_id, artifact)`` pairs sorted by
    query id, where each artifact is exactly what the member's solo
    registration would ship (:class:`AutomatonTables`,
    :class:`CompiledEqualityQuery`, ...).  Sorting makes the pickle —
    and hence the fused store entry — independent of registration
    order, matching :func:`fused_fingerprint`.
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

    # -- Serialization ------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"members": self.members}

    def __setstate__(self, state: dict) -> None:
        self.members = state["members"]

    def materialize(self) -> "FusedEngine":
        """The evaluating engine (worker-side; also used serially)."""
        return FusedEngine(self)

    def __repr__(self) -> str:
        return f"FusedQuery(members={list(self.member_ids)})"


class FusedEngine:
    """A fused query set, materialized for evaluation.

    Cohorts are planned once at construction; :meth:`streams` then
    yields one lazy tuple iterator per member (member order) per
    document, the sweep cohorts sharing one character pass each and the
    equality cohort sharing one :class:`SubstringIndex`.
    """

    __slots__ = ("member_ids", "_sweeps", "_equality", "_solo")

    def __init__(self, fused: FusedQuery):
        self.member_ids = fused.member_ids
        self._sweeps: list[list[tuple[int, AutomatonTables]]] = []
        self._equality: list[tuple[int, CompiledEqualityQuery]] = []
        self._solo: list[tuple[int, object]] = []
        for kind, entries in plan_cohorts(fused.members):
            if kind.startswith("sweep"):
                # Prebuild each member's burst rows exactly as a solo
                # CompiledSpanner construction would (idempotent).
                for _index, tables in entries:
                    tables.prebuild_burst()
                self._sweeps.append(entries)  # type: ignore[arg-type]
            elif kind == "equality":
                self._equality = entries  # type: ignore[assignment]
            else:
                self._solo = entries

    def streams(self, s: str) -> list[Iterator[SpanTuple]]:
        """One tuple iterator per member (member order) for document ``s``.

        Sweep cohorts run their shared pass eagerly here (it *is* the
        shared work); enumeration — and the equality members' per-
        document compilation — stays lazy in the returned iterators.
        """
        out: list[Iterator[SpanTuple]] = [iter(())] * len(self.member_ids)
        for entries in self._sweeps:
            graphs = fused_sweep(entries, s)
            for member, graph in graphs.items():
                out[member] = graph_tuples(graph)
        if self._equality:
            index = SubstringIndex(s)
            for member, engine in self._equality:
                out[member] = _equality_stream(engine, s, index)
        for member, engine in self._solo:
            out[member] = engine.stream(s)  # type: ignore[attr-defined]
        return out

    def __repr__(self) -> str:
        return (
            f"FusedEngine(members={len(self.member_ids)}, "
            f"sweeps={len(self._sweeps)}, "
            f"equality={len(self._equality)}, solo={len(self._solo)})"
        )
