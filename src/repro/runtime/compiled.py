"""The compiled-spanner runtime: compile once, evaluate many documents.

A cold ``SpannerEvaluator`` realizes Theorem 3.3 for one
``(automaton, string)`` pair; every construction re-derives the trim,
the configuration sweep and the variable-epsilon closures even though
none of them depend on the string, and its state-set memos die with
it.  :class:`CompiledSpanner` performs that work exactly once (via
:class:`~repro.runtime.tables.AutomatonTables`) and then streams any
number of documents through the cached tables:

    spanner = CompiledSpanner(".*x{[0-9]+}.*")
    for answers in spanner.evaluate_many(documents):
        ...

Per document a compiled spanner builds no evaluation graph.  It runs
*state-set evaluation*
(:class:`~repro.enumeration.statesets.StateSetLevels`): one interned
automaton-state set per level, stepped through memos that live on the
shared tables (:class:`~repro.runtime.tables.StateSetMemo`) and serve
every later document — a forward pass (a dict read per character once
warm), a backward live pass in place of pruning, and the walk's
children in place of ``A_G`` out-edges.  The cold evaluator runs the
same passes on one-off tables, so a compiled spanner yields exactly
the tuple sequence the cold evaluator yields, in the radix order of
configuration words that the pruned ``A_G``'s radix enumeration
produces.  Enumeration
is the event-compressed walk of
:func:`~repro.enumeration.enumerator.walk_tuples`: its amortized
per-tuple delay does not grow with ``|s|`` (each determinized state set
is stepped at most once per document), and its worst-case delay is
Theorem 3.3's ``O(n^2 |s|)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..enumeration.enumerator import SpannerEvaluator
from ..regex.ast import RegexFormula
from ..regex.parser import parse
from ..spans import SpanRelation, SpanTuple
from ..vset.automaton import VSetAutomaton
from ..vset.compile import compile_regex
from .tables import AutomatonTables, tables_for

__all__ = ["CompiledSpanner", "estimate_compile_states"]


def estimate_compile_states(
    query: object,
) -> int | None:
    """Upper-bound the automaton size ``register()`` would build.

    Admission control needs the answer *before* compiling: the
    Thompson-style construction of Lemma 3.4 emits at most two states
    per syntax-tree node (plus the start/accept pair), so for formula
    inputs the bound ``2*|alpha| + 2`` costs one linear parse — never a
    compile.  Already-built inputs report their actual state count —
    including a :class:`~repro.runtime.equality.CompiledEqualityQuery`,
    whose static operands are already compiled and report the sum of
    their table sizes (the fused equality runtime never materializes
    the product, so the statics *are* its state inventory).  Inputs
    whose cost this function cannot bound cheaply return ``None``,
    meaning "admit".

    Beyond first registration, ``SpannerService.restore()`` re-runs
    this estimate on artifacts revived from the store — current limits
    apply to yesterday's fleet, so the function must price compiled
    objects, not just source.

    The estimate is an upper bound on the *pre-compaction* automaton;
    trimming only removes states, so a query admitted by its estimate
    never compiles into something larger than the estimate.
    """
    if isinstance(query, CompiledSpanner):
        return query.n_states
    if isinstance(query, AutomatonTables):
        return query.automaton.n_states
    if isinstance(query, VSetAutomaton):
        return query.n_states
    if isinstance(query, str):
        query = parse(query)
    if isinstance(query, RegexFormula):
        return 2 * query.size() + 2
    # Imported lazily: equality.py imports from this module at load.
    from .equality import CompiledEqualityQuery

    if isinstance(query, CompiledEqualityQuery):
        return sum(
            tables.automaton.n_states for tables, _groups in query.disjuncts
        )
    return None


class CompiledSpanner:
    """A spanner with all string-independent preprocessing done upfront.

    Accepts a vset-automaton, a regex-formula AST, or concrete regex
    syntax (compiled via Lemma 3.4).  Construction runs the automaton-
    side half of Theorem 3.3's preprocessing — trim + epsilon
    compaction, the configuration sweep (raising
    :class:`~repro.errors.NotFunctionalError` on non-functional input),
    interned variable-epsilon closures, terminal-edge lists — and every
    evaluation afterwards reuses those tables.

    The tables come from the shared :func:`tables_for` cache, so a
    ``CompiledSpanner`` and a join using the same automaton object share
    one set of closures.  They also carry the state-set memos every
    evaluation reads and fills; threads may share one spanner.
    """

    __slots__ = ("automaton", "tables")

    def __init__(self, spanner: "VSetAutomaton | RegexFormula | str"):
        if isinstance(spanner, VSetAutomaton):
            automaton = spanner
        else:
            automaton = compile_regex(spanner)
        self.automaton = automaton
        self.tables: AutomatonTables = tables_for(automaton)
        if not self.tables.is_empty:
            self.tables.require_all_closed_final()
        # Chars-only automata have a statically known alphabet: index
        # every character row now so no document ever runs the
        # predicate fallback (no-op beyond the thresholds / for
        # wildcard predicates — those stay lazily indexed).
        self.tables.prebuild_burst()

    @classmethod
    def from_tables(cls, tables: AutomatonTables) -> "CompiledSpanner":
        """A spanner over already-built (e.g. unpickled) tables.

        The string-independent preprocessing is *not* rerun: this is
        how a :class:`~repro.runtime.parallel.ParallelSpanner` worker
        turns the one shipped :class:`AutomatonTables` artifact into a
        serving spanner.  The automaton is the prepared (compacted) one
        the tables describe.
        """
        self = object.__new__(cls)
        self.automaton = tables.automaton
        self.tables = tables
        if not tables.is_empty:
            tables.require_all_closed_final()
        return self

    # -- Serialization ------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"automaton": self.automaton, "tables": self.tables}

    def __setstate__(self, state: dict) -> None:
        self.automaton = state["automaton"]
        self.tables = state["tables"]

    # -- Introspection ------------------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return self.automaton.variables

    @property
    def n_states(self) -> int:
        """States of the prepared (compacted) automaton."""
        return self.tables.automaton.n_states

    # -- Per-document evaluation --------------------------------------------
    def evaluator(self, s: str) -> SpannerEvaluator:
        """A Theorem 3.3 evaluator for ``s`` on the cached tables.

        Only the string-dependent preprocessing runs: the forward pass
        of state-set evaluation (the live pass follows on first
        enumeration or count).  Iterate the result for enumeration with
        amortized per-tuple delay independent of ``|s|`` (worst case
        ``O(n^2 |s|)``), or use its ``count()`` (a per-level DP over the
        memoized children) / ``is_empty()`` (the final state in the last
        forward set).  Its ``graph`` builds the pruned ``A_G`` on read.
        """
        return SpannerEvaluator(self.automaton, s, tables=self.tables)

    def stream(self, s: str) -> Iterator[SpanTuple]:
        """The tuples of ``[[A]](s)`` in radix order (streaming)."""
        yield from self.evaluator(s)

    def evaluate(self, s: str) -> SpanRelation:
        """Materialized ``[[A]](s)``."""
        return SpanRelation(self.variables, self.stream(s))

    def count(self, s: str, cap: int | None = None) -> int:
        """Number of distinct tuples of ``[[A]](s)`` without decoding."""
        return self.evaluator(s).count(cap=cap)

    def is_empty(self, s: str) -> bool:
        """True iff ``[[A]](s)`` is empty."""
        return self.evaluator(s).is_empty()

    # -- Batch evaluation ---------------------------------------------------
    def evaluate_many(self, docs: Iterable[str]) -> Iterator[list[SpanTuple]]:
        """Stream a document collection through the cached tables.

        Yields one ``list[SpanTuple]`` per document, in input order,
        each in the same radix order a cold evaluator would produce.
        Lazy: documents are only read as the iterator advances, so this
        composes with unbounded document streams.
        """
        for s in docs:
            yield list(self.stream(s))

    def count_many(self, docs: Iterable[str], cap: int | None = None) -> Iterator[int]:
        """Per-document distinct-tuple counts (no tuple decoding)."""
        for s in docs:
            yield self.count(s, cap=cap)

    def __repr__(self) -> str:
        return (
            f"CompiledSpanner(vars={sorted(self.variables)}, "
            f"states={self.n_states}, "
            f"chars_indexed={self.tables.distinct_characters_seen})"
        )
