"""The fused equality-join runtime (Theorem 5.4 without materializing A_eq).

The paper evaluates a string-equality selection ``ζ^=(A)`` on input
``s`` as ``A ⋈ A_eq`` (Lemma 3.10 + Theorem 5.4), where ``A_eq`` is a
per-string path automaton with ``O(N^{k+2})`` states.  The materializing
pipeline (:func:`repro.vset.equality.equality_automaton` + the generic
join) therefore rebuilds and re-trims an enormous NFA for **every**
input string, then runs the full product construction against it — the
dominant per-document cost of equality workloads, while the
equality-free path is fully amortized.

This module evaluates the same join with the equality operand kept
*implicit*.  The insight is that ``A_eq`` has almost no information in
it: every path reads ``s`` verbatim, so a state of ``A_eq`` is fully
described by

* the current *gap* (1-based boundary position in ``s``),
* whether a marker burst has already fired at this gap (paths fire all
  of a gap's markers on one edge),
* the start positions of the currently-open group variables,
* which variables are already closed, and
* once the first variable has closed: the common span length ``L`` and
  a canonical *representative* start for the shared substring value
  (a class id of the :class:`~repro.text.substrings.SubstringIndex`).

Crucially this representation **merges** the explicit construction's
paths: all choices that agree on the fired prefix share one implicit
state, and once a group is fully closed every choice collapses into a
single per-gap state.  Validity is enforced on the fly — a burst is
only emitted when the partial assignment still extends to a full
equal-span choice (substring class equality, occurrence queries for
still-unopened variables, longest-common-extension feasibility for
partially-opened groups) — so the product construction below never
explores a choice the string cannot complete.  The bursts a state can
try depend only on which variables are open and closed, so their
shapes are memoized across documents (:func:`_skeleton`).

The product itself is Lemma 3.10's construction, driven directly off
the static operand's cached :class:`~repro.runtime.tables.AutomatonTables`
(VE closures, configuration sweep, terminal edges — all
string-independent and shared with every other join of that operand)
via :func:`repro.vset.join.operand_view`.  Two runtime prunes keep it
lean:

* the implicit operand reads ``s`` position by position, so the product
  is automatically synchronized with the string — static states are
  only ever paired at gaps they can reach on ``s``;
* a backward sweep precomputes, per gap, the static states that can
  still reach the final state on the rest of ``s``; pairs outside it —
  e.g. marker bursts the static operand can never complete — are
  dropped immediately instead of waiting for the final trim.

One BFS (:class:`EqualityProduct`) records the product: per product
state its gap, its burst successors within the gap and its terminal
successors at the next gap.  Two consumers read that record:

* production evaluation (:class:`CompiledEqualityQuery`'s ``evaluator``,
  ``stream``, ``count``, ``is_empty``) turns it straight into the
  levels of Theorem 3.3's walk (:class:`EqualityLevels`): every product
  state sits at one gap, so a burst closure and a backward live pass
  give each level's states, and a state's letter is its merged
  configuration projected onto the head.  No product automaton, trim,
  projection, tables or ``A_G`` is built per document;
* :func:`equality_join` and :meth:`CompiledEqualityQuery.compile_for`,
  the reference and trace path, turn it into a
  :class:`~repro.vset.automaton.VSetAutomaton` with exactly the
  relation of ``join(static, equality_automaton(s, group))`` on ``s``.

Both give the same tuples in the same order, because the radix order of
configuration words depends only on the answer set.

:class:`CompiledEqualityQuery` packages the string-independent half of
an equality query (per-disjunct static join folds as picklable tables,
equality groups, head) into a ship-to-workers artifact mirroring
:class:`~repro.runtime.compiled.CompiledSpanner`'s interface, which is
what lets :class:`~repro.runtime.parallel.ParallelSpanner` shard
equality workloads across processes.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..alphabet import EPSILON, char_pred
from ..automata.nfa import NFA
from ..errors import SchemaError
from ..spans import SpanRelation, SpanTuple
from ..text.substrings import SubstringIndex
from ..vset.automaton import VSetAutomaton
from ..vset.configurations import CLOSED, OPEN, WAITING, VariableConfiguration
from ..vset.join import _empty_result, operand_view
from ..vset.operations import project, union
from .tables import AutomatonTables, tables_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..enumeration.enumerator import SpannerEvaluator

__all__ = [
    "equality_join",
    "CompiledEqualityQuery",
    "EqualityLevels",
    "EqualityProduct",
]


#: Fire options per variable inside one burst.
_KEEP, _OPEN, _CLOSE, _OPEN_CLOSE = 0, 1, 2, 3

#: Burst skeletons by ``(k, closed_mask, open_mask)``; see :func:`_skeleton`.
_SKELETONS: dict[tuple[int, int, int], tuple] = {}


def _var_states(k: int, closed_mask: int, open_mask: int) -> tuple[int, ...]:
    """Per-variable configuration states (w/o/c codes) of two masks."""
    return tuple(
        CLOSED if closed_mask >> j & 1
        else OPEN if open_mask >> j & 1
        else WAITING
        for j in range(k)
    )


def _skeleton(k: int, closed_mask: int, open_mask: int) -> tuple:
    """The document-independent shape of every burst from one state.

    A burst picks, per variable, one of: keep, open here, close here
    (if open), or open-and-close here (an empty span), and must change
    something.  Each entry, in the order of the per-variable choices'
    cartesian product, is ``(closes, empty, opens, new_closed,
    unopened, states)``:

    * ``closes``: the open variables the burst closes;
    * ``empty``: whether it closes some variable on an empty span;
    * ``opens``: ``(var, opened_here)`` for every variable open after
      it, ascending;
    * ``new_closed``: the closed mask after it;
    * ``unopened``: whether a variable is still waiting after it;
    * ``states``: the per-variable configuration states after it.

    A burst that closes an open variable (a span of at least one
    character) and an empty span at once can never agree on the length,
    so it has no entry.  Memoized at module level; an entry is built in
    full before it is published, so threads may share the memo.
    """
    key = (k, closed_mask, open_mask)
    found = _SKELETONS.get(key)
    if found is not None:
        return found
    options: list[tuple[int, ...]] = []
    for j in range(k):
        if closed_mask >> j & 1:
            options.append((_KEEP,))
        elif open_mask >> j & 1:
            options.append((_KEEP, _CLOSE))
        else:
            options.append((_KEEP, _OPEN, _OPEN_CLOSE))
    full_mask = (1 << k) - 1
    entries = []
    for combo in cartesian_product(*options):
        closes = tuple(j for j, action in enumerate(combo) if action == _CLOSE)
        empty = _OPEN_CLOSE in combo
        if closes and empty:
            continue
        if not closes and not empty and _OPEN not in combo:
            continue  # all keep: not a burst
        opens = tuple(
            (j, action == _OPEN)
            for j, action in enumerate(combo)
            if action == _OPEN or (action == _KEEP and open_mask >> j & 1)
        )
        new_closed = closed_mask
        for j, action in enumerate(combo):
            if action == _CLOSE or action == _OPEN_CLOSE:
                new_closed |= 1 << j
        new_open_mask = 0
        for j, _here in opens:
            new_open_mask |= 1 << j
        entries.append((
            closes,
            empty,
            opens,
            new_closed,
            bool(full_mask & ~new_closed & ~new_open_mask),
            _var_states(k, new_closed, new_open_mask),
        ))
    return _SKELETONS.setdefault(key, tuple(entries))


class _ImplicitEqualityOperand:
    """``A_eq`` for one group on one string, as states-on-demand.

    States are tuples ``(gap, fired, opens, closed_mask, length, ref)``:

    * ``gap``: 1-based boundary position, ``1 .. N+1``;
    * ``fired``: True after the gap's (single) marker burst;
    * ``opens``: sorted ``(var_index, start_gap)`` pairs of open vars;
    * ``closed_mask``: bitmask of closed vars;
    * ``length``/``ref``: the group's span length and the canonical
      representative start of its substring value, fixed by the first
      close (``None`` before; reset to ``None`` once *all* vars are
      closed, so completed states merge across every choice).

    Every state is interned to a dense id on first sight; id
    :data:`FINAL` is the unique final state (all markers fired, the
    whole string read), which has no tuple.  Per id the operand keeps
    the state, its per-variable configuration states and its shared
    key (those states on the variables the static operand shares).

    ``ve_closure`` plays the role of the explicit operand's
    variable-epsilon closures: the state itself, every valid one-burst
    successor at the current gap, and the final state once the string
    is consumed and the group fully closed.

    A group of no variables is allowed: its only states are the
    complete ones, so the product with it just reads ``s`` alongside
    the static operand (an equality-free disjunct's levels).
    """

    FINAL = 0

    __slots__ = (
        "k",
        "n",
        "index",
        "full_mask",
        "initial",
        "shared_idx",
        "states",
        "var_states",
        "keys",
        "_keys",
        "closures",
        "advances",
        "_ids",
    )

    def __init__(
        self,
        k: int,
        s: str,
        index: SubstringIndex,
        shared_idx: tuple[int, ...],
    ):
        self.k = k
        self.n = len(s)
        self.index = index
        self.full_mask = (1 << k) - 1
        self.shared_idx = shared_idx
        self.states: list[tuple | None] = []
        self.var_states: list[tuple[int, ...]] = []
        self.keys: list[tuple[int, ...]] = []
        self._keys: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._ids: dict[tuple | None, int] = {}
        self.closures: list[tuple | None] = []
        self.advances: list[int | None] = []
        self.intern(None, (CLOSED,) * k)  # FINAL
        self.initial = self.intern(
            (1, False, (), 0, None, None), (WAITING,) * k
        )

    def intern(self, state: tuple | None, var_states: tuple[int, ...]) -> int:
        """The id of ``state`` (whose configuration is ``var_states``)."""
        found = self._ids.get(state)
        if found is None:
            found = self._ids[state] = len(self.states)
            self.states.append(state)
            self.var_states.append(var_states)
            key = self._keys.get(var_states)
            if key is None:
                key = self._keys[var_states] = tuple(
                    var_states[i] for i in self.shared_idx
                )
            self.keys.append(key)
            self.closures.append(None)
            self.advances.append(None)
        return found

    # -- The variable-epsilon closure ---------------------------------------
    def ve_closure(self, uid: int) -> tuple:
        """``(id, shared key)`` for each state ``uid`` reaches by one burst.

        Mirrors the explicit ``A_eq``'s VE closures: paths fire all of
        a gap's markers on one edge, so the closure is the state, its
        burst successors, and the final state for fully-closed states
        at gap ``N+1``.
        """
        cached = self.closures[uid]
        if cached is None:
            states: list = self.states
            u = states[uid]
            targets = [uid]
            if not u[1]:
                targets.extend(self._fire_targets(u))
            closure: dict[int, None] = {}
            end_gap = self.n + 1
            for t in targets:
                closure[t] = None
                if states[t][0] == end_gap and states[t][3] == self.full_mask:
                    closure[self.FINAL] = None
            keys = self.keys
            cached = self.closures[uid] = tuple((t, keys[t]) for t in closure)
        return cached

    def advance(self, uid: int) -> int:
        """The state after reading the character at the current gap.

        ``-1`` when the state is provably dead at the next gap — a
        fixed-length group variable whose mandatory close boundary was
        just passed, or a required future occurrence that no longer
        exists — so the product skips the whole doomed branch.
        """
        cached = self.advances[uid]
        if cached is not None:
            return cached
        state: tuple = self.states[uid]  # type: ignore[assignment]
        if self._dies(state):
            nxt = -1
        else:
            g, _fired, opens, closed_mask, length, ref = state
            nxt = self.intern(
                (g + 1, False, opens, closed_mask, length, ref),
                self.var_states[uid],
            )
        self.advances[uid] = nxt
        return nxt

    def _dies(self, state: tuple) -> bool:
        """Whether ``state`` is dead once it reads on to the next gap."""
        g, _fired, opens, closed_mask, length, ref = state
        if length is None:
            # Nothing closed yet: a still-unopened variable must find,
            # from the next gap on, the value's first g + 1 - lo
            # characters (every span is at least that long).
            if opens and len(opens) < self.k:
                return not self._recurs(min(p for _j, p in opens), g + 1)
            return False
        for _j, p in opens:
            if p + length <= g:  # close boundary missed: dead branch
                return True
        if closed_mask != self.full_mask:
            open_mask = 0
            for j, _p in opens:
                open_mask |= 1 << j
            if self.full_mask & ~closed_mask & ~open_mask:
                # A still-unopened variable needs a fresh occurrence
                # of the shared substring value from the next gap on.
                return (
                    self.index.first_occurrence_at_or_after(ref, length, g + 1)
                    is None
                )
        return False

    def _recurs(self, lo: int, gap: int) -> bool:
        """Whether ``s[lo-1 : gap-1]`` occurs again at a start ``>= gap``."""
        reps, starts = self.index.classes(gap - lo)
        return starts[reps[lo]][-1] >= gap  # type: ignore[index]

    # -- Burst enumeration ---------------------------------------------------
    def _fire_targets(self, u: tuple) -> list[int]:
        """The ids of all valid one-burst successors of the unfired ``u``.

        Runs the state's burst :func:`_skeleton`; a burst is kept only
        when the new partial assignment still extends to a full
        equal-span choice of ``s``: closed spans agree on length and
        value, open variables can still close on that value, and
        still-unopened variables find an occurrence later.
        """
        g, _fired, opens, closed_mask, length, ref = u
        n1 = self.n + 1
        classes = self.index.classes
        full_mask = self.full_mask
        open_start = [0] * self.k
        open_mask = 0
        for j, p in opens:
            open_start[j] = p
            open_mask |= 1 << j
        at_end = g == n1
        reps: list[int] = []
        starts: list = []
        value = 0
        if length is not None:
            reps, starts = classes(length)
            value = reps[ref]
        out: dict[int, None] = {}
        for closes, empty, layout, new_closed, unopened, states in _skeleton(
            self.k, closed_mask, open_mask
        ):
            if at_end and (layout or unopened):
                continue  # nothing can open, close or occur after N+1
            new_len, new_ref = length, ref
            new_reps, new_starts, new_value = reps, starts, value
            if closes or empty:
                # Fix (or check against) the group's common length/value.
                if closes:
                    start = open_start[closes[0]]
                    if len(closes) > 1 and any(
                        open_start[j] != start for j in closes[1:]
                    ):
                        continue  # unequal span lengths
                else:
                    start = g
                span_len = g - start
                if length is None:
                    new_len = span_len
                    new_reps, new_starts = classes(span_len)
                    new_ref = new_value = new_reps[start]
                elif span_len != length or reps[start] != value:
                    continue
            open_starts = [g if here else open_start[j] for j, here in layout]
            # Still-open variables must be closable later.
            if new_len is not None:
                dead = False
                for p in open_starts:
                    close_gap = p + new_len
                    if (
                        close_gap <= g
                        or close_gap > n1
                        or new_reps[p] != new_value
                    ):
                        dead = True
                        break
                if dead:
                    continue
                # Still-unopened variables must find an occurrence later.
                if unopened and new_starts[new_value][-1] <= g:
                    continue
            elif open_starts:
                # No length fixed yet.  Every span reaches past this
                # gap, so a still-unopened variable must find the
                # value's first g + 1 - lo characters again after it.
                # And some common extension must cover every open
                # start until the earliest legal close boundary
                # (strictly after this gap): every pairwise longest
                # common extension is at least ``needed``, i.e. the
                # substrings of that length agree.
                lo = min(open_starts)
                if unopened and not self._recurs(lo, g + 1):
                    continue
                if len(open_starts) > 1:
                    needed = g + 1 - lo
                    if needed > n1 - max(open_starts):
                        continue
                    extension = classes(needed)[0]
                    first = extension[open_starts[0]]
                    if any(extension[p] != first for p in open_starts[1:]):
                        continue
            if new_closed == full_mask:
                # Completed groups merge across all choices.
                target = (g, True, (), full_mask, None, None)
            else:
                new_opens = tuple(
                    (j, p) for (j, _here), p in zip(layout, open_starts)
                )
                target = (g, True, new_opens, new_closed, new_len, new_ref)
            out[self.intern(target, states)] = None
        return list(out)


def _backward_reachable(
    op, s: str, ve_sets: list[frozenset[int]]
) -> tuple[list[frozenset[int]], list[list[tuple[int, ...]]]]:
    """Per-gap static states that can still finish on the rest of ``s``.

    Returns ``(reach, reads)``.  ``reach[g]`` (1-based, ``1 .. N+1``)
    holds every static state from which the final state is reachable
    while reading exactly ``s[g-1:]`` — the sound over-approximation
    the product uses to cut branches the static operand can never
    complete.  ``reads[g][q]`` lists, in edge order, the targets of
    ``q``'s terminal edges that read ``s[g-1]`` into ``reach[g+1]``.
    """
    n = len(s)
    n_states = len(ve_sets)
    final = op.automaton.final
    reach: list[frozenset[int]] = [frozenset()] * (n + 2)
    reads: list[list[tuple[int, ...]]] = [[]] * (n + 1)
    reach[n + 1] = frozenset(
        q for q in range(n_states) if final in ve_sets[q]
    )
    for g in range(n, 0, -1):
        sigma = s[g - 1]
        nxt = reach[g + 1]
        row = [
            tuple(
                dst
                for pred, dst in op.terminal_edges[q]
                if dst in nxt and pred.matches(sigma)
            )
            for q in range(n_states)
        ]
        reads[g] = row
        reach[g] = frozenset(
            q
            for q in range(n_states)
            if any(row[r] for r in ve_sets[q])
        )
    return reach, reads


def _check_group(group: Sequence[str]) -> tuple[str, ...]:
    group = tuple(sorted(group))
    if len(group) < 2:
        raise SchemaError("a string-equality group needs at least 2 variables")
    if len(set(group)) != len(group):
        raise SchemaError("string-equality variables must be distinct")
    return group


class EqualityProduct:
    """One product BFS of a static operand with the implicit ``A_eq``.

    Product states are pairs ``(static state, implicit state)`` with
    dense ids in discovery order; id 0 is the initial pair.  Per id the
    BFS records the pair, its burst successors (same gap, in edge
    order) and its terminal successors (next gap), and groups the ids by
    gap.  :meth:`automaton` turns the record into the product
    automaton; :meth:`levels` into the per-gap levels of the walk.
    """

    __slots__ = (
        "op",
        "eq",
        "s",
        "variables",
        "union_vars",
        "plan",
        "pairs",
        "by_gap",
        "bursts",
        "terminals",
        "final",
    )

    def __init__(
        self,
        tables: AutomatonTables,
        group: tuple[str, ...],
        s: str,
        index: SubstringIndex,
    ):
        self.s = s
        self.variables = variables = tables.variables | set(group)
        self.final: int | None = None
        self.pairs: list[tuple] = []
        if tables.is_empty:
            return
        shared = tuple(v for v in group if v in tables.variables)
        op = self.op = operand_view(tables, shared)
        group_pos = {v: i for i, v in enumerate(group)}
        eq = self.eq = _ImplicitEqualityOperand(
            len(group), s, index, tuple(group_pos[v] for v in shared)
        )
        n = len(s)

        ve_sets = [frozenset(states) for states in op.ve]
        reach, reads = _backward_reachable(op, s, ve_sets)
        initial1 = op.automaton.initial
        final1 = op.automaton.final
        if initial1 not in reach[1]:
            return

        # Merged-configuration plan: values come from the static side for
        # its variables and from the implicit operand for group-only ones
        # (shared variables agree by the consistency bucketing).
        self.union_vars = tuple(sorted(variables))
        static_pos = {v: i for i, v in enumerate(sorted(tables.variables))}
        self.plan = tuple(
            (1, group_pos[v]) if v in group_pos else (0, static_pos[v])
            for v in self.union_vars
        )

        # Pairs are keyed ``uid * n_static + p1`` (one int, cheap to hash).
        n_static = len(op.ve)
        FINAL = eq.FINAL
        eq_states = eq.states
        ids: dict[int, int] = {eq.initial * n_static + initial1: 0}
        pairs = self.pairs = [(initial1, eq.initial)]
        by_gap: list[list[int]] = [[] for _ in range(n + 2)]
        by_gap[1].append(0)
        bursts: list[tuple[int, ...]] = []
        terminals: list[tuple[int, ...]] = []
        ve_by_key = op.ve_by_key
        closures = eq.closures
        advances = eq.advances
        empty: tuple[int, ...] = ()
        i = 0
        while i < len(pairs):
            p1, uid = pairs[i]
            i += 1
            if uid == FINAL:
                # Only the true final pair is ever built, and it has no
                # outgoing moves.
                bursts.append(empty)
                terminals.append(empty)
                continue
            g = eq_states[uid][0]  # type: ignore[index]
            reach_g = reach[g]
            level = by_gap[g]

            # Rule (a): burst transitions — every consistent pair of the
            # static VE closure with the implicit operand's closure, found
            # bucket-by-bucket on the shared-variable configuration.
            buckets1 = ve_by_key[p1]
            out: list[int] = []
            closure = closures[uid]
            if closure is None:
                closure = eq.ve_closure(uid)
            for vid, key in closure:
                qs = buckets1.get(key)
                if qs is None:
                    continue
                base = vid * n_static
                for q1 in qs:
                    if vid == FINAL:
                        # Only the true final pair survives: FINAL has no
                        # outgoing moves, so anything else is dead weight.
                        if q1 != final1:
                            continue
                    elif q1 not in reach_g or (q1 == p1 and vid == uid):
                        continue
                    dst = ids.get(base + q1)
                    if dst is None:
                        dst = ids[base + q1] = len(pairs)
                        pairs.append((q1, vid))
                        level.append(dst)
                    out.append(dst)
            bursts.append(tuple(out) if out else empty)

            # Rule (b): terminal transitions — the implicit operand reads
            # s verbatim, so the product reads exactly s[g-1] here.
            succ = empty
            if g <= n:
                targets = reads[g][p1]
                if targets:
                    next_uid = advances[uid]
                    if next_uid is None:
                        next_uid = eq.advance(uid)
                    if next_uid >= 0:
                        next_level = by_gap[g + 1]
                        base = next_uid * n_static
                        found: list[int] = []
                        for r1 in targets:
                            dst = ids.get(base + r1)
                            if dst is None:
                                dst = ids[base + r1] = len(pairs)
                                pairs.append((r1, next_uid))
                                next_level.append(dst)
                            found.append(dst)
                        succ = tuple(found)
            terminals.append(succ)
        self.by_gap = by_gap
        self.bursts = bursts
        self.terminals = terminals
        self.final = ids.get(FINAL * n_static + final1)

    # -- The reference product automaton ------------------------------------
    def automaton(self) -> VSetAutomaton:
        """The product as a trimmed vset-automaton (state ``i`` = id ``i``).

        Burst edges carry the marker set between the merged
        configurations of their ends (epsilon when it is empty);
        terminal edges read the gap's character.
        """
        if self.final is None:
            return _empty_result(self.variables)
        pairs = self.pairs
        configs = self.op.configs
        var_states = self.eq.var_states
        union_vars = self.union_vars
        plan = self.plan
        merged_cache: dict[tuple, VariableConfiguration] = {}
        merged: list[VariableConfiguration] = []
        for p1, uid in pairs:
            config1 = configs[p1]
            assert config1 is not None
            eq_states = var_states[uid]
            key = (config1, eq_states)
            config = merged_cache.get(key)
            if config is None:
                states1 = config1.states
                config = merged_cache[key] = VariableConfiguration(
                    union_vars,
                    tuple(
                        eq_states[i] if side else states1[i]
                        for side, i in plan
                    ),
                )
            merged.append(config)
        ops_cache: dict[tuple, frozenset] = {}
        reads = [char_pred(ch) for ch in self.s]
        nfa = NFA()
        nfa.add_states(len(pairs))
        nfa.set_initial(0)
        eq_states = self.eq.states
        for src, (_p1, uid) in enumerate(pairs):
            src_merged = merged[src]
            for dst in self.bursts[src]:
                ops_key = (src_merged, merged[dst])
                ops = ops_cache.get(ops_key)
                if ops is None:
                    ops = ops_cache[ops_key] = src_merged.markers_to(
                        merged[dst]
                    )
                nfa.add_transition(src, ops if ops else EPSILON, dst)
            if self.terminals[src]:
                label = reads[eq_states[uid][0] - 1]  # type: ignore[index]
                for dst in self.terminals[src]:
                    nfa.add_transition(src, label, dst)
        nfa.add_final(self.final)
        return VSetAutomaton(nfa, self.variables).trimmed()

    # -- The walk's levels ---------------------------------------------------
    def levels(
        self, head: tuple[str, ...], offset: int
    ) -> tuple[list, list, tuple[int, ...]]:
        """The product's levels: a backward live pass over the record.

        Returns ``(letters, steps, initial)``, with successor ids
        shifted by ``offset``.  For a live id (one that can still reach
        the final pair), ``letters[i]`` is its merged configuration
        projected onto ``head`` (sorted) as a ``states`` tuple and
        ``steps[i]`` its live successors one gap on, ascending — the
        closure of its terminal successors under burst moves, as an
        ``A_G`` node's out-edges are; both are ``None`` for dead ids.
        ``initial`` is the live part of the initial pair's closure.
        """
        pairs = self.pairs
        n_ids = len(pairs)
        letters: list = [None] * n_ids
        steps: list = [None] * n_ids
        if self.final is None:
            return letters, steps, ()
        configs = self.op.configs
        var_states = self.eq.var_states
        position = {v: i for i, v in enumerate(self.union_vars)}
        head_plan = tuple(self.plan[position[v]] for v in head)
        letter_cache: dict[tuple, tuple[int, ...]] = {}

        def letter(i: int) -> tuple[int, ...]:
            p1, uid = pairs[i]
            eq_states = var_states[uid]
            key = (p1, eq_states)
            found = letter_cache.get(key)
            if found is None:
                states1 = configs[p1].states  # type: ignore[union-attr]
                found = letter_cache[key] = tuple(
                    eq_states[j] if side else states1[j]
                    for side, j in head_plan
                )
            return found

        bursts = self.bursts
        live = bytearray(n_ids)
        live[self.final] = 1
        letters[self.final] = letter(self.final)
        closures: dict[int, tuple[int, ...]] = {}

        def live_closure(r: int) -> tuple[int, ...]:
            # A state's burst successors are closed under bursts: the
            # static VE closures are transitive, and a fired implicit
            # state only reaches the final state, which its source's
            # closure holds too.
            found = closures.get(r)
            if found is None:
                found = closures[r] = tuple(sorted(
                    q + offset for q in (r, *bursts[r]) if live[q]
                ))
            return found

        terminals = self.terminals
        by_gap = self.by_gap
        for g in range(len(by_gap) - 2, 0, -1):
            for p in by_gap[g]:
                targets = terminals[p]
                if not targets:
                    continue
                if len(targets) == 1:
                    succ = live_closure(targets[0])
                else:
                    succ = tuple(sorted(set().union(
                        *(live_closure(r) for r in targets)
                    )))
                if succ:
                    live[p] = 1
                    steps[p] = succ
                    letters[p] = letter(p)
        return letters, steps, live_closure(0)


def equality_join(
    static: VSetAutomaton,
    group: Sequence[str],
    s: str,
    *,
    tables: AutomatonTables | None = None,
    index: SubstringIndex | None = None,
) -> VSetAutomaton:
    """The join ``static ⋈ A_eq(s, group)`` without materializing ``A_eq``.

    Produces a functional vset-automaton whose relation on ``s`` is
    byte-identical to ``join(static, equality_automaton(s, group))`` —
    the tuples of ``static`` on ``s`` whose ``group`` spans carry equal
    substrings — while building only product states the string *and*
    the static operand can complete.

    Args:
        static: the (functional) static operand.
        group: the equality group, at least two distinct variables;
            variables outside ``static``'s set are allowed and join in
            unconstrained, as the explicit construction's would.
        s: the input string the equality is compiled against.
        tables: precomputed tables for ``static`` (defaults to the
            shared :func:`tables_for` cache).
        index: a substring index of ``s`` to share across groups.
    """
    group = _check_group(group)
    if tables is None:
        tables = tables_for(static)
    if index is None:
        index = SubstringIndex(s)
    return EqualityProduct(tables, group, s, index).automaton()


class EqualityLevels:
    """An equality query's levels on one document, for the walk.

    A level source for :func:`~repro.enumeration.enumerator.walk_tuples`
    built straight from the product BFS records
    (:class:`EqualityProduct`) of the query's disjuncts: no product
    automaton, trim, projection, tables or ``A_G``.  Product ids are
    unique to their gap (level), so a set is a sorted tuple of ids and
    names its level, and a union of disjuncts is the union of their
    levels over disjoint id ranges.  The children of every single live
    id are filled at construction, so a forced step of the walk is a
    dict read; children of larger sets are grouped on demand.  Grouping
    successors by letter (the head-projected configuration) and uniting
    their sets removes duplicates exactly as projection plus
    determinization do, so the walk yields the tuples of the compiled
    automaton in its radix order.
    """

    __slots__ = (
        "n_slots", "variables", "is_empty", "_letters", "_steps", "_memo"
    )

    #: The virtual root at level 0 (no product id is negative).
    root = (-1,)

    def __init__(
        self,
        products: Sequence[EqualityProduct],
        head: Sequence[str],
        n_slots: int,
    ):
        self.n_slots = n_slots
        self.variables = frozenset(head)
        ordered = tuple(sorted(self.variables))
        letters: list = []
        steps: list = []
        initial: list[int] = []
        for product in products:
            part_letters, part_steps, part_initial = product.levels(
                ordered, len(letters)
            )
            letters.extend(part_letters)
            steps.extend(part_steps)
            initial.extend(part_initial)
        self._letters = letters
        self._steps = steps
        self.is_empty = not initial
        group = self._group
        memo = {self.root: group(tuple(initial))}
        for i, succ in enumerate(steps):
            if succ is not None:
                memo[(i,)] = group(succ)
        self._memo = memo

    def _group(self, succ: tuple[int, ...]) -> tuple:
        """``(letter, successor set)`` pairs of ``succ``, letters ascending."""
        letters = self._letters
        if len(succ) == 1:
            return ((letters[succ[0]], succ),)
        by_letter: dict[tuple[int, ...], list[int]] = {}
        for q in succ:
            found = by_letter.get(letters[q])
            if found is None:
                by_letter[letters[q]] = [q]
            else:
                found.append(q)
        return tuple(
            (letter, tuple(ids)) for letter, ids in sorted(by_letter.items())
        )

    def children_memos(self) -> list[dict]:
        return [self._memo] * self.n_slots

    def children(self, states: tuple[int, ...], level: int) -> tuple:
        steps = self._steps
        reached: set[int] = set()
        for p in states:
            reached.update(steps[p])
        found = self._memo[states] = self._group(tuple(sorted(reached)))
        return found

    def jumps(self) -> tuple:
        return ()


class CompiledEqualityQuery:
    """A ship-anywhere engine for equality queries: compile once, fuse per doc.

    The string-independent half of Corollary 5.5's compilation — the
    per-disjunct static join folds, as :class:`AutomatonTables` — is
    computed (or handed over) once; every document then pays only the
    fused product BFS of each disjunct and the walk over its levels.
    The interface mirrors :class:`~repro.runtime.compiled.CompiledSpanner`
    (``stream`` / ``evaluate`` / ``count`` / batch variants), which is
    what :class:`~repro.runtime.parallel.ParallelSpanner` drives, and
    the pickle contract ships the per-disjunct tables through the same
    worker-initializer path the equality-free artifacts use.
    """

    __slots__ = ("head", "disjuncts")

    def __init__(
        self,
        statics: Sequence[VSetAutomaton | AutomatonTables],
        groups_per_disjunct: Sequence[Sequence[Sequence[str]]],
        head: Sequence[str],
    ):
        if len(statics) != len(groups_per_disjunct):
            raise ValueError("one group list per static disjunct required")
        resolved: list[tuple[AutomatonTables, tuple[tuple[str, ...], ...]]] = []
        for static, groups in zip(statics, groups_per_disjunct):
            tables = (
                static
                if isinstance(static, AutomatonTables)
                else tables_for(static)
            )
            resolved.append(
                (tables, tuple(tuple(sorted(g)) for g in groups))
            )
        self.disjuncts = tuple(resolved)
        self.head = tuple(head)

    # -- Serialization ------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"head": self.head, "disjuncts": self.disjuncts}

    def __setstate__(self, state: dict) -> None:
        self.head = state["head"]
        self.disjuncts = state["disjuncts"]

    # -- Introspection ------------------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return frozenset(self.head)

    def __repr__(self) -> str:
        groups = sum(len(groups) for _t, groups in self.disjuncts)
        return (
            f"CompiledEqualityQuery(head={list(self.head)}, "
            f"disjuncts={len(self.disjuncts)}, equality_groups={groups})"
        )

    # -- Per-document compilation -------------------------------------------
    def compile_for(
        self, s: str, *, index: SubstringIndex | None = None
    ) -> VSetAutomaton:
        """The fully-compiled automaton for ``s`` (fused equality joins).

        Pass ``index`` to share one per-document
        :class:`SubstringIndex` across several equality queries hitting
        the same document — the fused serving path does, so the
        rolling-hash preprocessing is paid once per document instead of
        once per (query, document) pair.
        """
        if index is None:
            index = SubstringIndex(s)
        per_disjunct = []
        for tables, groups in self.disjuncts:
            automaton = tables.automaton
            disjunct_tables: AutomatonTables | None = tables
            for group in groups:
                automaton = equality_join(
                    automaton, group, s, tables=disjunct_tables, index=index
                )
                disjunct_tables = None  # later folds derive their own
            per_disjunct.append(project(automaton, self.head))
        if len(per_disjunct) == 1:
            return per_disjunct[0]
        return union(per_disjunct)

    # -- Evaluation ---------------------------------------------------------
    def levels(
        self, s: str, *, index: SubstringIndex | None = None
    ) -> EqualityLevels:
        """The walk's levels for ``s``, straight from the product BFS.

        Per disjunct, every equality group but the last folds through
        :func:`equality_join` as in :meth:`compile_for`; the last group
        (or, for a disjunct without equalities, the static operand
        alone) is one product BFS whose record becomes the levels.
        """
        if index is None:
            index = SubstringIndex(s)
        products = []
        for tables, groups in self.disjuncts:
            last: tuple[str, ...] = ()
            if groups:
                for group in groups[:-1]:
                    folded = equality_join(
                        tables.automaton, group, s, tables=tables, index=index
                    )
                    tables = tables_for(folded)
                last = _check_group(groups[-1])
            unknown = set(self.head) - tables.variables - set(last)
            if unknown:
                raise SchemaError(
                    f"cannot project onto unknown variables {sorted(unknown)}"
                )
            products.append(EqualityProduct(tables, last, s, index))
        return EqualityLevels(products, self.head, len(s) + 1)

    def evaluator(
        self, s: str, *, index: SubstringIndex | None = None
    ) -> "SpannerEvaluator":
        """An evaluator over :meth:`levels`.

        Its ``automaton`` (and with it ``graph`` and
        ``configuration_words``) is built through :meth:`compile_for`
        only when read.
        """
        from ..enumeration.enumerator import SpannerEvaluator

        if index is None:
            index = SubstringIndex(s)
        return SpannerEvaluator.over_levels(
            self.levels(s, index=index),
            s,
            lambda: self.compile_for(s, index=index),
        )

    def stream(self, s: str) -> Iterator[SpanTuple]:
        yield from self.evaluator(s)

    def evaluate(self, s: str) -> SpanRelation:
        return SpanRelation(self.head, self.stream(s))

    def count(self, s: str, cap: int | None = None) -> int:
        return self.evaluator(s).count(cap=cap)

    def is_empty(self, s: str) -> bool:
        return self.evaluator(s).is_empty()

    def evaluate_many(self, docs: Iterable[str]) -> Iterator[list[SpanTuple]]:
        for s in docs:
            yield list(self.stream(s))

    def count_many(
        self, docs: Iterable[str], cap: int | None = None
    ) -> Iterator[int]:
        for s in docs:
            yield self.count(s, cap=cap)
