"""Construction of the evaluation graph ``G`` and NFA ``A_G`` (§4.2).

Given a functional vset-automaton ``A`` (with configurations ``~c_q``)
and a string ``s = σ_1 ... σ_N``, the paper builds:

* a leveled graph ``G`` whose nodes ``(i, q)`` mean "``A`` can be in
  state ``q`` immediately before reading ``σ_{i+1}``" (after absorbing
  any burst of variable operations / epsilon moves);
* the NFA ``A_G`` over the alphabet ``K = {~c_q | q ∈ Q}`` obtained by
  labelling every edge into ``(i, q)`` with ``~c_q`` and adding a
  virtual initial state.

``L(A_G)`` then consists of words of length ``N + 1`` in one-to-one
correspondence with ``[[A]](s)``, so enumerating the language without
repetition (radix order, Algorithms 1–3) enumerates the tuples.

We realize ``A_G`` directly as a
:class:`~repro.automata.leveled.LeveledNFA`: the virtual initial state
is the root; a paper node ``(i, q)`` sits at level ``i + 1``; level
``N + 1`` keeps only ``(N, q_f)``.  Pruning non-co-reachable nodes — the
paper's "remove nodes from which ``(N, q_f)`` cannot be reached" — is
:meth:`LeveledNFA.prune`.

Sizes: ``G`` has at most ``N*n + 1`` nodes and ``N*n^2`` edges, and the
construction runs in ``O(N n^2)`` after the ``O(mn)`` closure
precomputation — the preprocessing bound of Theorem 3.3.

This is the cold ``SpannerEvaluator``'s level source and the reference
the production path is checked against.  Evaluators over shared tables
(``CompiledSpanner``, fused serving) build no ``A_G``: they walk the
same determinized levels as memoized state sets
(:mod:`repro.enumeration.statesets`), and equality queries walk the
levels of their fused product (:mod:`repro.runtime.equality`).
"""

from __future__ import annotations

from ..automata.leveled import LeveledNFA
from ..runtime.tables import AutomatonTables
from ..vset.automaton import VSetAutomaton

__all__ = ["build_evaluation_graph", "sweep_evaluation_graph", "EvaluationGraph"]


class EvaluationGraph:
    """The leveled NFA ``A_G`` plus the data needed to decode words.

    Attributes:
        leveled: the pruned :class:`LeveledNFA` over configurations.
        variables: the automaton's variable set (for decoding).
        n_slots: ``N + 1`` — the uniform word length.
    """

    __slots__ = ("leveled", "variables", "n_slots")

    def __init__(
        self, leveled: LeveledNFA, variables: frozenset[str], n_slots: int
    ):
        self.leveled = leveled
        self.variables = variables
        self.n_slots = n_slots


def build_evaluation_graph(
    automaton: VSetAutomaton,
    s: str,
    tables: AutomatonTables | None = None,
) -> EvaluationGraph:
    """Preprocessing of Theorem 3.3: build the pruned ``A_G`` for (A, s).

    The string-independent half (trim, configuration sweep, VE closures,
    terminal-edge lists) lives in :class:`AutomatonTables`; pass
    precomputed ``tables`` to skip it entirely and pay only the
    per-string sweep.  Without ``tables``
    the artifacts are rebuilt for this call — the cold path of
    ``SpannerEvaluator``.

    Raises:
        NotFunctionalError: when the automaton is not functional (the
            configuration sweep detects a conflict, or the final
            configuration leaves a variable unclosed).
    """
    if tables is None:
        tables = AutomatonTables(automaton)
    leveled = sweep_evaluation_graph(tables, s)
    leveled.prune()
    return EvaluationGraph(leveled, tables.variables, len(s) + 1)


def sweep_evaluation_graph(tables: AutomatonTables, s: str) -> LeveledNFA:
    """The forward sweep of :func:`build_evaluation_graph`, unpruned.

    Builds ``A_G`` level by level through the burst-step table and marks
    ``(N, q_f)`` accepting; :meth:`LeveledNFA.prune` then finishes the
    preprocessing.  Split out so benchmarks can time the two apart.
    """
    leveled = LeveledNFA(len(s) + 1)
    if tables.is_empty:
        return leveled
    n = len(s)
    tables.require_all_closed_final()
    configs = tables.configs
    # The construction below appends nodes/edges directly instead of
    # going through the checked add_node/add_edge: it only ever creates
    # nodes at ``position + 1`` and edges advancing exactly one level,
    # and this is the per-document hot path of the whole engine.
    level_of = leveled.level_of
    out_edges = leveled.out_edges

    node_of: dict[int, int] = {}
    # Level 1: states reachable from q0 by a burst, read before sigma_1.
    frontier: list[int] = []
    root_edges = out_edges[LeveledNFA.ROOT]
    for q in tables.initial_ve:
        level_of.append(1)
        out_edges.append([])
        node = len(level_of) - 1
        node_of[q] = node
        root_edges.append((configs[q], node))
        frontier.append(q)

    for position in range(1, n + 1):
        steps = tables.burst_step(s[position - 1])
        next_nodes: dict[int, int] = {}
        next_frontier: list[int] = []
        next_level = position + 1
        for p in frontier:
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
        node_of = next_nodes
        frontier = next_frontier
        if not frontier:
            # The frontier only ever shrinks from here: no state
            # survived this position, so every remaining level would be
            # empty and prune() would discard it all.  Stopping now
            # makes a non-matching document cost O(matched prefix)
            # instead of O(|s|) — with node_of empty, the final-state
            # lookup below misses and the graph prunes to the same
            # empty result the full sweep would have produced.
            break

    final_node = node_of.get(tables.automaton.final)
    if final_node is not None:
        leveled.mark_accepting(final_node)
    return leveled
