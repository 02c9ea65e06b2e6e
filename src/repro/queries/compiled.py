"""The compilation-to-automaton strategy (§3.3.3, §5.2).

Per disjunct: compile every regex atom (Lemma 3.4), fold the joins
(Lemma 3.10), join in one runtime equality automaton per equality group
(Theorem 5.4), push the projection (Lemma 3.8); then union the
disjuncts (Lemma 3.9) and enumerate with Theorem 3.3.

Consequences implemented here:

* regex k-UCQs evaluate with **polynomial delay** for fixed ``k``
  (Theorem 3.11) — the compilation is polynomial because each disjunct
  folds a bounded number of joins;
* with at most ``m`` equality groups per disjunct the guarantee
  persists (Corollary 5.5), with the equality automata built against
  the concrete input string (they cannot exist statically — regular
  spanners are strictly weaker than core spanners);
* duplicate elimination across disjuncts is free: enumeration works on
  the *configuration-sequence language* of the union automaton, and two
  disjuncts producing the same tuple produce the same word.

The string-free part of the compilation (everything except equality
automata) is cached per query *structure* in the **process-wide**
bounded LRU of :mod:`repro.runtime.cache`, so repeated evaluation over
a document collection pays the join fold once — and so do independent
evaluators, the CLI and parallel workers compiling the same structure;
for equality-free queries the fully compiled automaton is additionally
wrapped in a :class:`~repro.runtime.CompiledSpanner`, amortizing
Theorem 3.3's string-independent preprocessing across the collection
as well.
"""

from __future__ import annotations

from typing import Iterator

from ..enumeration.enumerator import SpannerEvaluator
from ..runtime.cache import LRUCache, compilation_cache
from ..runtime.compiled import CompiledSpanner
from ..runtime.equality import CompiledEqualityQuery
from ..spans import SpanRelation, SpanTuple
from ..vset.automaton import VSetAutomaton
from ..vset.equality import equality_automaton
from ..vset.join import join, join_many
from ..vset.operations import project, union
from .cq import RegexCQ
from .ucq import RegexUCQ

__all__ = ["CompiledEvaluator", "query_fingerprint"]


def query_fingerprint(query: RegexCQ | RegexUCQ) -> tuple:
    """A structural key identifying what the compilation depends on.

    Two queries with equal fingerprints compile to the same automata:
    per disjunct the regex-atom formulas (the ASTs are frozen
    dataclasses, so equality is structural), the head, and the merged
    equality groups.  Keying caches by this — instead of ``id(query)``
    — survives garbage collection: a recycled object id can otherwise
    silently serve a stale compilation for a *different* query.
    """
    if isinstance(query, RegexCQ):
        query = RegexUCQ([query])
    return (
        query.head,
        tuple(
            (
                tuple(atom.formula for atom in cq.regex_atoms),
                tuple(eq.variables for eq in cq.merged_equalities()),
            )
            for cq in query
        ),
    )


class CompiledEvaluator:
    """Evaluate regex CQs / UCQs by compiling to one vset-automaton.

    Compiled artifacts (static join folds, equality-free compiled
    spanners) live in a bounded LRU keyed by query *structure*.  By
    default that is the process-wide :func:`compilation_cache`, so any
    number of evaluator instances — and the CLI and parallel workers —
    share one compilation per structure; pass ``cache`` for an
    isolated (e.g. per-test or differently-sized) cache.  Structural
    keys make slot recycling safe: after an eviction, a reappearing
    fingerprint can only belong to a structurally equal query, which
    recompiles to an interchangeable artifact — never a stale one.

    Equality groups evaluate through the **fused** runtime
    (:func:`repro.runtime.equality.equality_join`) by default: the
    per-string ``A_eq`` is never materialized, the product is driven
    off the static operand's cached tables.  Pass
    ``materialize_equalities=True`` to force the explicit
    Theorem 5.4 construction — the parity reference the fused path is
    tested against.
    """

    def __init__(
        self,
        cache: LRUCache | None = None,
        *,
        materialize_equalities: bool = False,
    ) -> None:
        self.cache = cache if cache is not None else compilation_cache()
        self.materialize_equalities = materialize_equalities

    # -- Compilation -----------------------------------------------------------
    def compile_static(self, query: RegexCQ | RegexUCQ) -> list[VSetAutomaton]:
        """The string-independent part: per-disjunct joined automata.

        Returns one automaton per disjunct, *before* equality joins and
        projection (both may depend on the input string / head).
        """
        if isinstance(query, RegexCQ):
            query = RegexUCQ([query])
        # The static fold ignores head and equalities, so key by the
        # formulas alone: queries differing only in projection share it.
        key = (
            "static-fold",
            tuple(
                tuple(atom.formula for atom in cq.regex_atoms) for cq in query
            ),
        )

        def build() -> list[VSetAutomaton]:
            return [
                join_many([atom.automaton() for atom in cq.regex_atoms])
                for cq in query
            ]

        return self.cache.get_or_create(key, build)

    def compile(self, query: RegexCQ | RegexUCQ, s: str) -> VSetAutomaton:
        """The full compilation for input ``s`` (one automaton).

        For queries without equalities the result is independent of
        ``s`` apart from the cache.  With equalities, the fused engine
        of :meth:`equality_runtime` folds them against ``s``
        (:meth:`CompiledEqualityQuery.compile_for`); with
        ``materialize_equalities`` the per-group ``A_eq`` automata are
        built against ``s`` and joined in.
        """
        if isinstance(query, RegexCQ):
            query = RegexUCQ([query])
        if query.has_equalities and not self.materialize_equalities:
            return self.equality_runtime(query).compile_for(s)
        per_disjunct: list[VSetAutomaton] = []
        statics = self.compile_static(query)
        head = query.head
        for cq, automaton in zip(query, statics):
            for eq in cq.merged_equalities():
                group = tuple(sorted(eq.variable_set))
                automaton = join(automaton, equality_automaton(s, group))
            per_disjunct.append(project(automaton, head))
        if len(per_disjunct) == 1:
            return per_disjunct[0]
        return union(per_disjunct)

    def runtime(self, query: RegexCQ | RegexUCQ) -> CompiledSpanner | None:
        """A reusable compiled spanner for an equality-free query.

        Without string equalities the fully compiled automaton is
        independent of the input string, so it — and its Theorem 3.3
        string-independent tables — can be cached once per query
        structure and streamed over any number of documents.  Returns
        ``None`` when the query has equalities (those automata only
        exist per string).
        """
        if isinstance(query, RegexCQ):
            query = RegexUCQ([query])
        if query.has_equalities:
            return None
        key = ("compiled-spanner", query_fingerprint(query))
        return self.cache.get_or_create(
            key, lambda: CompiledSpanner(self.compile(query, ""))
        )

    def equality_runtime(
        self, query: RegexCQ | RegexUCQ
    ) -> CompiledEqualityQuery | None:
        """A reusable fused-equality engine for a query *with* equalities.

        The string-independent half — the per-disjunct static join
        folds and their tables — is cached per query structure; each
        document then pays only the fused per-string equality joins.
        The artifact is picklable (its tables ride the worker-
        initializer path), so
        :class:`~repro.runtime.parallel.ParallelSpanner` can shard it.
        Returns ``None`` for equality-free queries (use
        :meth:`runtime`, which amortizes strictly more).
        """
        if isinstance(query, RegexCQ):
            query = RegexUCQ([query])
        if not query.has_equalities:
            return None
        key = ("equality-query", query_fingerprint(query))

        def build() -> CompiledEqualityQuery:
            statics = self.compile_static(query)
            groups = [
                tuple(
                    tuple(sorted(eq.variable_set))
                    for eq in cq.merged_equalities()
                )
                for cq in query
            ]
            return CompiledEqualityQuery(statics, groups, query.head)

        return self.cache.get_or_create(key, build)

    # -- Evaluation ------------------------------------------------------------
    def prepare(self, query: RegexCQ | RegexUCQ, s: str) -> SpannerEvaluator:
        """Run all preprocessing eagerly; the result is iterable.

        This is the two-phase split of Theorem 3.3 surfaced at the query
        level: compilation (joins, equalities, projection, union) plus
        the evaluation-graph construction happen here; iterating the
        returned evaluator then yields answers with polynomial delay.

        Equality-free queries route through the compiled-spanner
        runtime, so repeated calls over a document collection pay the
        automaton-side preprocessing once; equality queries route
        through the fused :class:`CompiledEqualityQuery` engine, which
        amortizes the static join folds the same way and fuses the
        per-string equality joins.
        """
        spanner = self.runtime(query)
        if spanner is not None:
            return spanner.evaluator(s)
        if not self.materialize_equalities:
            engine = self.equality_runtime(query)
            if engine is not None:
                return engine.evaluator(s)
        return SpannerEvaluator(self.compile(query, s), s)

    def stream(self, query: RegexCQ | RegexUCQ, s: str) -> Iterator[SpanTuple]:
        """Enumerate the answers with polynomial delay (fixed k, m)."""
        yield from self.prepare(query, s)

    def evaluate(self, query: RegexCQ | RegexUCQ, s: str) -> SpanRelation:
        """Materialized convenience wrapper around :meth:`stream`."""
        head = (
            query.head if isinstance(query, RegexUCQ) else tuple(query.head)
        )
        return SpanRelation(head, self.stream(query, s))

    def evaluate_boolean(self, query: RegexCQ | RegexUCQ, s: str) -> bool:
        """Non-emptiness without materializing: first answer or bust."""
        for _mu in self.stream(query, s):
            return True
        return False
