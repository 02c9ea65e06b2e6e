"""State-set evaluation: Theorem 3.3 without a per-document ``A_G``.

The walk of :func:`~repro.enumeration.enumerator.walk_tuples` only ever
visits *determinized* state sets of the pruned ``A_G``, and a node
``(i, q)`` of ``A_G`` is just automaton state ``q`` at level ``i``.  So
a document's pruned ``A_G`` is determined by one automaton-state set
per level, and every step between such sets depends only on the sets
and the character read, never on the document.  :class:`StateSetLevels`
evaluates one document against the document-independent memos of
:class:`~repro.runtime.tables.StateSetMemo`:

* the forward pass ``(S, σ) → S'`` replaces the evaluation-graph sweep;
* the backward live pass ``(S, σ, live') → live`` replaces
  :meth:`~repro.automata.leveled.LeveledNFA.prune`;
* the walk's children ``(T, σ, live') → ((letter, T'), ...)`` replace
  the scan of ``A_G`` out-edges.

Per document this costs a few dict reads per level once the memos are
warm, instead of building ``O(N n)`` nodes and ``O(N n^2)`` edges.  The
memos only pay off when the tables serve many documents, so
:class:`~repro.enumeration.enumerator.SpannerEvaluator` takes this path
exactly when its caller passes tables it already holds (a
``CompiledSpanner``, a fused serving task); one-off tables keep the
``A_G`` source.
"""

from __future__ import annotations

from ..runtime.tables import ROOT_STEP, AutomatonTables, StepContext

__all__ = ["StateSetLevels"]


class StateSetLevels:
    """One document's levels over its tables' shared state-set memo.

    A level source for the walk: ``root``, ``n_slots`` (``|s| + 1``),
    ``variables``, ``is_empty``, :meth:`children_memos` and
    :meth:`children`.  Construction runs the forward pass; the backward
    pass (:meth:`live_pass`) runs when the walk or :meth:`count` first
    needs children, so :attr:`is_empty` costs the forward pass alone
    (the final state is in the last forward set).

    Raises:
        NotFunctionalError: when the final configuration leaves a
            variable unclosed (as :func:`build_evaluation_graph` does).
    """

    __slots__ = (
        "memo",
        "text",
        "n_slots",
        "variables",
        "root",
        "is_empty",
        "forward",
        "_contexts",
    )

    def __init__(self, tables: AutomatonTables, s: str):
        self.text = s
        self.n_slots = len(s) + 1
        self.variables = tables.variables
        self._contexts: list[StepContext] | None = None
        if tables.is_empty:
            self.memo = None
            self.root = 0
            self.forward: list[int] = []
            self.is_empty = True
            return
        tables.require_all_closed_final()
        memo = self.memo = tables.state_memo()
        self.root = memo.root
        forward_of = memo.forward
        empty = memo.empty
        reached = memo.initial
        forward = [memo.root, reached]
        for ch in s:
            nxt = forward_of[reached].get(ch)
            if nxt is None:
                nxt = memo.step(reached, ch)
            if nxt == empty:
                # No state survives: every later set is empty too.
                break
            forward.append(nxt)
            reached = nxt
        self.forward = forward
        self.is_empty = not (
            len(forward) == self.n_slots + 1
            and tables.automaton.final in memo.sets[reached]
        )

    def live_pass(self) -> list[StepContext]:
        """The step context of every level, from the last one back.

        Level ``i``'s context pairs the character it reads with the live
        set of level ``i + 1``; its ``live`` memo yields level ``i``'s
        live set in turn.  Runs once; later calls return the result.
        """
        if self._contexts is not None:
            return self._contexts
        memo = self.memo
        contexts_of = memo.contexts
        forward = self.forward
        text = self.text
        contexts: list[StepContext] = [None] * self.n_slots  # type: ignore[list-item]
        target = memo.accept
        for level in range(len(text), 0, -1):
            ch = text[level - 1]
            ctx = contexts_of[target].get(ch)
            if ctx is None:
                ctx = memo.context(target, ch)
            contexts[level] = ctx
            states = forward[level]
            live = ctx.live.get(states)
            if live is None:
                live = memo.live(ctx, states)
            target = live
        ctx = contexts_of[target].get(ROOT_STEP)
        contexts[0] = ctx if ctx is not None else memo.context(target, ROOT_STEP)
        self._contexts = contexts
        return contexts

    def children_memos(self) -> list[dict]:
        """Per level, the shared children memo of its step context."""
        return [ctx.children for ctx in self.live_pass()]

    def children(
        self, states: int, level: int
    ) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The ``(letter, successor set)`` pairs of live set ``states``."""
        ctx = (self._contexts or self.live_pass())[level]
        found = ctx.children.get(states)
        if found is None:
            found = self.memo.children(ctx, states)
        return found

    def count(self, cap: int | None = None) -> int:
        """Distinct tuples: a per-level DP over the memoized children.

        Words, not paths, as :meth:`LeveledNFA.count_words` counts them,
        with the same ``cap`` contract: the result is ``min(count, cap)``.
        """
        if self.is_empty:
            return 0
        children = self.children
        frontier = {self.root: 1}
        for level in range(self.n_slots):
            nxt: dict[int, int] = {}
            for states, paths in frontier.items():
                for _letter, successor in children(states, level):
                    nxt[successor] = nxt.get(successor, 0) + paths
            frontier = nxt
            if cap is not None and sum(frontier.values()) >= cap:
                return cap
        return sum(frontier.values())
