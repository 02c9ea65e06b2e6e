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
  :meth:`~repro.automata.leveled.LeveledNFA.prune`, and also records
  the levels where the all-``WAITING`` part of ``live`` can fire a
  marker, so the walk jumps the stretches between them
  (:meth:`StateSetLevels.jumps`);
* the walk's children ``(T, σ, live') → ((letter, T'), ...)`` replace
  the scan of ``A_G`` out-edges.

Per document this costs a few dict reads per level once the memos are
warm, instead of building ``O(N n)`` nodes and ``O(N n^2)`` edges; the
walk then skips the levels where no letter can change.  Every
:class:`~repro.enumeration.enumerator.SpannerEvaluator` over a regex
automaton takes this path.  On tables its caller holds (a
``CompiledSpanner``, a fused serving task) the memos serve every later
document; on the one-off tables of a cold evaluator they serve that
one document, where the walk still visits each determinized set once
and steps no ``A_G`` edge, and the jumps still skip its silent
stretches.
"""

from __future__ import annotations

from itertools import chain

from ..runtime.tables import ROOT_STEP, AutomatonTables, StepContext

__all__ = ["StateSetLevels"]


class StateSetLevels:
    """One document's levels over its tables' shared state-set memo.

    A level source for the walk: ``root``, ``n_slots`` (``|s| + 1``),
    ``variables``, ``is_empty``, :meth:`children_memos`,
    :meth:`children` and :meth:`jumps`.  Construction runs the forward
    pass; the backward pass (:meth:`live_pass`) runs when the walk or
    :func:`~repro.enumeration.enumerator.count_tuples` first needs
    children, so :attr:`is_empty` costs the forward pass alone
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
        "_jumps",
    )

    def __init__(self, tables: AutomatonTables, s: str):
        self.text = s
        self.n_slots = len(s) + 1
        self.variables = tables.variables
        self._contexts: list[StepContext] | None = None
        self._jumps: list[tuple[int, int, int, int]] = []
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
        live set in turn, with that set's all-``WAITING`` part and
        whether the part fires (see :meth:`jumps`).  Runs once; later
        calls return the result.
        """
        if self._contexts is not None:
            return self._contexts
        memo = self.memo
        contexts_of = memo.contexts
        forward = self.forward
        text = self.text
        contexts: list[StepContext] = [None] * self.n_slots  # type: ignore[list-item]
        jumps: list[tuple[int, int, int, int]] = []
        # The nearest firing level above (0: none yet), its part, and
        # the part one level up.
        fire_level = 0
        fire_part = above = memo.empty
        target = memo.accept
        # Level i > 0 reads text[i - 1]; the root reads ROOT_STEP.
        for level, ch in zip(
            range(len(text), -1, -1), chain(reversed(text), (ROOT_STEP,))
        ):
            ctx = contexts_of[target].get(ch)
            if ctx is None:
                ctx = memo.context(target, ch)
            contexts[level] = ctx
            states = forward[level]
            found = ctx.live.get(states)
            if found is None:
                found = memo.live(ctx, states)
            live, part, fires = found
            if fires:
                if fire_level > level + 1:
                    jumps.append((level + 1, above, fire_level, fire_part))
                fire_level = level
                fire_part = part
            above = part
            target = live
        if fire_level > 0:
            # The root is silent: the all-WAITING word starts with a jump.
            jumps.append((0, above, fire_level, fire_part))
        self._jumps = jumps
        self._contexts = contexts
        return contexts

    def jumps(self) -> list[tuple[int, int, int, int]]:
        """The silent stretches of the all-``WAITING`` word, as jumps.

        The word whose letters are all ``WAITING`` holds, at each level,
        the all-``WAITING`` part of the live set.  A level *fires* when
        that part has a child with another letter (a marker opens into
        the next live set); between two firing levels the part has one
        child, the next level's part.  Each stretch of such silent
        levels is one ``(level, part, end level, end part)``: the walk
        lands on ``end part`` at ``end level`` in one step, appending no
        event.  The ``live`` memos hold what decides it, so recording
        the jumps costs the live pass a few local operations per level.
        """
        self.live_pass()
        return self._jumps

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
