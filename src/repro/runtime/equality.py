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
single per-gap state.  Likewise, while every variable of the group is
open at one common start (none closed or waiting), the state forgets
that start: its only future is closing them all together, which
succeeds from any start, so the ``x = y`` diagonal is one state per
gap rather than one per (start, gap).

Validity is enforced on the fly: a burst is only emitted, and a state
only read on, when the partial assignment still extends to a full
equal-span choice, so the product construction below never explores a
choice the string cannot complete.  Every check is an index into the
per-length class tables of the document's
:class:`~repro.text.substrings.SubstringIndex`
(:attr:`~repro.text.substrings.SubstringIndex.class_tables`, one dict
read per length): closed spans share a class, an open variable's
substring up to its close boundary is in the value's class, a
still-unopened variable needs the value's class (or, before any close,
the class of the shortest possible value) to occur again ahead, and
variables open at different starts need their substrings to agree up
to the earliest legal close boundary.  The bursts a state can try
depend only on which variables are open and closed, so their shapes,
with what each check reads, are memoized across documents
(:func:`_skeleton`); bursts that can never be valid (an empty span
beside a variable it closes or leaves open) have no shape.  Nor is a
burst tried that the static operand cannot follow: the product pairs
it only with a static state whose variable-epsilon closure makes the
same move on the shared variables, so a shape whose move, projected
onto them, no static closure makes is dropped (an empty span for a
static ``[a-h]+``, say).  The shapes left are memoized per static
tables and group on the tables' ``views`` (:class:`_BurstTable`), so
the filter costs a document nothing.  A fired state has no further
burst at its gap, so its closure is fixed when it is interned.

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
  dropped immediately instead of waiting for the final trim.  Each
  gap of the sweep depends only on the next gap's result and the
  character, so it is a lazy DFA on the static tables' state-set memo
  (:meth:`~repro.runtime.tables.StateSetMemo.backward`): bounded by
  :data:`~repro.runtime.tables.STATE_MEMO_MAX_ENTRIES`, never pickled,
  safe to share across threads, and on a warm stream a few dict reads
  per gap.

One BFS (:class:`EqualityProduct`) records the product: per product
state its gap, its burst successors within the gap and its terminal
successors at the next gap, and per gap the states there that read on.
A *silent* pair is recorded once for a whole stretch of gaps.  Its
implicit state is unfired with no open variable, and its group is
either fully closed or has its length and value fixed with the rest
waiting; its static state's closure holds no other state of its shared
key, and at each gap of the stretch it reads the character into itself
alone.  Such a pair has no burst and one terminal successor, itself one
gap on, until the first of: the waiting variables' next occurrence of
the value
(:meth:`~repro.text.substrings.SubstringIndex.first_occurrence_at_or_after`),
the first gap where the static state does anything else, and
``N + 1``.  The BFS keys it by its pair at that last gap (its *stretch
id*), whose moves it records as any pair's, plus the gaps where other
pairs enter the stretch.  Two consumers read that record:

* production evaluation (:class:`CompiledEqualityQuery`'s ``evaluator``,
  ``stream``, ``count``, ``is_empty``) turns it straight into the
  levels of Theorem 3.3's walk (:class:`EqualityLevels`).  A state's
  burst successors are its whole closure, so one backward pass over the
  gaps that read on settles which states are live and fills each live
  state's children, its live successors grouped by letter; a stretch id
  stands for itself at every gap of its stretch (and the walk jumps
  it).  A state's letter is its merged configuration projected onto the
  head, read off a table of the static tables and head that serves
  every document.  No product automaton, trim, projection, tables or
  ``A_G`` is built per document;
* :func:`equality_join` and :meth:`CompiledEqualityQuery.compile_for`,
  the reference and trace path, turn it into a
  :class:`~repro.vset.automaton.VSetAutomaton` with exactly the
  relation of ``join(static, equality_automaton(s, group))`` on ``s``,
  a stretch id expanded back to one state per gap.

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
from .tables import ROOT_STEP, AutomatonTables, tables_for

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

#: What a burst's target is: the completed group, the all-open state with
#: its start forgotten, or a state that keeps its opens, length and value.
_COMPLETE, _MERGED, _PARTIAL = 0, 1, 2

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


def _code(var_states: tuple[int, ...]) -> int:
    """A configuration's per-variable states as one base-3 int.

    Like the states, it does not depend on the document, so it keys the
    letter tables (:class:`_LetterTable`) of every document alike.
    """
    code = 0
    for state in reversed(var_states):
        code = code * 3 + state
    return code


def _skeleton(k: int, closed_mask: int, open_mask: int) -> tuple:
    """The document-independent shape of every burst from one state.

    A burst picks, per variable, one of: keep, open here, close here
    (if open), or open-and-close here (an empty span), and must change
    something.  Each entry, in the order of the per-variable choices'
    cartesian product, is ``(first, others, empty, picks, layout, kind,
    new_closed, unopened, states)``:

    * ``first``: the first open variable the burst closes, or ``-1``;
    * ``others``: the other open variables it closes;
    * ``empty``: whether it closes some variable on an empty span;
    * ``picks``: per variable open after it, ascending, where its start
      is read: its own index for a variable kept open, ``k`` for one
      opened here (the caller's start array holds the gap there);
    * ``layout``: the variables open after it, ascending;
    * ``kind``: :data:`_COMPLETE` when every variable is closed after
      it, :data:`_MERGED` when every variable opens here from a state
      with none open or closed (the all-open state, ``k >= 2``), else
      :data:`_PARTIAL`;
    * ``new_closed``: the closed mask after it;
    * ``unopened``: whether a variable is still waiting after it;
    * ``states``: the per-variable configuration states after it.

    A burst that closes a variable on an empty span fixes the group's
    length at ``0``, so it has no entry when it also closes an open
    variable (a span of at least one character) or leaves one open: an
    open variable started at or before this gap, and a span of length
    ``0`` from there closes no later than this gap.  Memoized at module
    level; an entry is built in full before it is published, so threads
    may share the memo.  The implicit operand runs these shapes through
    its static operand's filter (:class:`_BurstTable`), which keeps the
    ones whose shared-variable move some static closure makes.
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
        if not closes and not empty and _OPEN not in combo:
            continue  # all keep: not a burst
        layout = tuple(
            j for j, action in enumerate(combo)
            if action == _OPEN or (action == _KEEP and open_mask >> j & 1)
        )
        if empty and (closes or layout):
            continue  # an empty span fixes length 0: nothing else fits
        new_closed = closed_mask
        for j, action in enumerate(combo):
            if action == _CLOSE or action == _OPEN_CLOSE:
                new_closed |= 1 << j
        new_open_mask = 0
        for j in layout:
            new_open_mask |= 1 << j
        unopened = bool(full_mask & ~new_closed & ~new_open_mask)
        if new_closed == full_mask:
            kind = _COMPLETE
        elif k >= 2 and not (open_mask or new_closed or unopened):
            kind = _MERGED
        else:
            kind = _PARTIAL
        entries.append((
            closes[0] if closes else -1,
            closes[1:],
            empty,
            tuple(k if combo[j] == _OPEN else j for j in layout),
            layout,
            kind,
            new_closed,
            unopened,
            _var_states(k, new_closed, new_open_mask),
        ))
    return _SKELETONS.setdefault(key, tuple(entries))


class _BurstTable(dict):
    """Burst skeletons the static operand can follow, by
    ``(closed_mask, open_mask)``.

    The product pairs a burst from implicit state ``u`` to ``v`` with
    the static side only through a static state ``p1`` of ``u``'s shared
    key and a state of ``v``'s shared key in ``p1``'s variable-epsilon
    closure.  So a :func:`_skeleton` entry survives only when the move
    from the masks' configuration to its ``states``, both projected
    onto the shared variables, is in ``moves``: the pairs ``(key of q,
    key of r)`` over every static state ``q`` and ``r`` in its closure.
    Group-only variables project away and stay unconstrained.  A
    complete entry carries the final state in its closure (at ``N +
    1``), and the final state's key is the complete entry's, so the two
    go together.  :attr:`merged_closes` tells whether the all-open
    state's one burst, closing every variable, survives.  Neither the
    skeletons nor ``moves`` depend on the document: one table per static
    tables and group, riding on the tables' ``views`` (never pickled),
    serves every document.  An entry is built whole before it is
    stored, so threads may share the table.
    """

    __slots__ = ("k", "shared_idx", "moves", "merged_closes")

    def __init__(self, k: int, shared_idx: tuple[int, ...], op):
        super().__init__()
        self.k = k
        self.shared_idx = shared_idx
        shared_key = op.shared_key
        self.moves = {
            (shared_key[q], key)
            for q, buckets in enumerate(op.ve_by_key)
            if shared_key[q] is not None
            for key in buckets
        }
        self.merged_closes = any(
            entry[5] == _COMPLETE for entry in self[(0, (1 << k) - 1)]
        )

    def __missing__(self, masks: tuple[int, int]) -> tuple:
        k = self.k
        shared_idx = self.shared_idx
        moves = self.moves
        states = _var_states(k, *masks)
        key = tuple(states[i] for i in shared_idx)
        return self.setdefault(masks, tuple(
            entry for entry in _skeleton(k, *masks)
            if (key, tuple(entry[8][i] for i in shared_idx)) in moves
        ))


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

    A state in which every variable of a group of ``k >= 2`` is open at
    one common start, none closed or waiting, forgets that start: its
    ``opens`` are :attr:`merged_opens`, every start written as ``0``
    (no real gap is ``0``), so it is one state per gap and fired flag.
    Nothing in its future reads the start: closing all variables at a
    later gap always succeeds (identical non-empty spans), closing a
    strict subset never can (the rest would need the same length from
    the same start), and it never dies.  Its only burst is therefore
    the all-closed state at its gap, which :meth:`_fire_targets`
    returns without running the skeleton.

    Every state is interned to a dense id on first sight; id
    :data:`FINAL` is the unique final state (all markers fired, the
    whole string read), which has no tuple.  Per id the operand keeps
    the state, its per-variable configuration states and their
    :func:`_code`; per configuration, its shared key (those states on
    the variables the static operand shares).

    ``ve_closure`` plays the role of the explicit operand's
    variable-epsilon closures: the state itself, every valid one-burst
    successor at the current gap, and the final state once the string
    is consumed and the group fully closed.  A fired state's closure is
    known when it is interned (itself, and the final state when it is
    complete at ``N + 1``), as is ``quiet`` of every state that cannot
    be quiet (``0``).

    A group of no variables is allowed: its only states are the
    complete ones, so the product with it just reads ``s`` alongside
    the static operand (an equality-free disjunct's levels).
    """

    FINAL = 0

    __slots__ = (
        "k",
        "n",
        "index",
        "class_tables",
        "full_mask",
        "merged_opens",
        "initial",
        "shared_idx",
        "bursts",
        "states",
        "var_states",
        "codes",
        "_keys",
        "_final_entry",
        "closures",
        "advances",
        "quiet",
        "_ids",
    )

    def __init__(
        self,
        k: int,
        s: str,
        index: SubstringIndex,
        shared_idx: tuple[int, ...],
        bursts: _BurstTable,
    ):
        self.k = k
        self.n = len(s)
        self.index = index
        self.class_tables = index.class_tables
        self.full_mask = (1 << k) - 1
        self.merged_opens = (
            tuple((j, 0) for j in range(k)) if k >= 2 else None
        )
        self.shared_idx = shared_idx
        self.bursts = bursts
        self.states: list[tuple | None] = []
        self.var_states: list[tuple[int, ...]] = []
        self.codes: list[int] = []
        self._keys: dict[tuple[int, ...], tuple] = {}
        self._ids: dict[tuple | None, int] = {}
        self.closures: list[tuple | None] = []
        self.advances: list[int | None] = []
        self.quiet: list[int | None] = []
        self.intern(None, (CLOSED,) * k)  # FINAL
        self._final_entry = (self.FINAL, self._keys[(CLOSED,) * k][0])
        self.initial = self.intern(
            (1, False, (), 0, None, None), (WAITING,) * k
        )

    def intern(self, state: tuple | None, var_states: tuple[int, ...]) -> int:
        """The id of ``state`` (whose configuration is ``var_states``)."""
        found = self._ids.get(state)
        return self._add(state, var_states) if found is None else found

    def _add(self, state: tuple | None, var_states: tuple[int, ...]) -> int:
        """A fresh id for ``state``, which has none yet.

        A fired state gets its closure here, and a state that cannot be
        quiet its ``quiet`` of ``0``.
        """
        states = self.states
        found = self._ids[state] = len(states)
        states.append(state)
        self.var_states.append(var_states)
        entry = self._keys.get(var_states)
        if entry is None:
            entry = self._keys[var_states] = (
                tuple(var_states[i] for i in self.shared_idx),
                _code(var_states),
            )
        key, code = entry
        self.codes.append(code)
        self.advances.append(None)
        closure = None
        quiet = 0
        if state is not None:
            if state[1]:
                # No further burst at this gap.
                closure = ((found, key),)
                if state[0] == self.n + 1 and state[3] == self.full_mask:
                    closure += (self._final_entry,)
            elif not state[2] and (
                state[3] == self.full_mask or state[4] is not None
            ):
                quiet = None  # maybe quiet: :meth:`quiet_until` decides
        self.closures.append(closure)
        self.quiet.append(quiet)
        return found

    def at_gap(self, uid: int, gap: int) -> int:
        """The id of the unfired state ``uid`` moved on to ``gap``."""
        state: tuple = self.states[uid]  # type: ignore[assignment]
        _g, _fired, opens, closed_mask, length, ref = state
        return self.intern(
            (gap, False, opens, closed_mask, length, ref), self.var_states[uid]
        )

    # -- Silent stretches ----------------------------------------------------
    def quiet_until(self, uid: int) -> int:
        """The first gap from which ``uid`` may fire a marker, or ``0``.

        Only an unfired state with no open variable whose group is
        either fully closed or has its ``(length, ref)`` fixed with the
        rest waiting is *quiet*; any other state gives ``0``.  A quiet
        state has no burst before the waiting variables' next
        occurrence of the shared value (``N + 1`` once all are closed,
        where the final state joins its closure), and reading on until
        then never kills it: no variable is open, and that occurrence
        is still ahead.  So each gap before it only reads a character.
        """
        found = self.quiet[uid]
        if found is None:
            # Unfired, nothing open, and closed or with its length fixed
            # (:meth:`_add` stores ``0`` for every other state).
            state: tuple = self.states[uid]  # type: ignore[assignment]
            g, _fired, _opens, closed_mask, length, ref = state
            if closed_mask == self.full_mask:
                found = self.n + 1
            else:
                found = self.index.first_occurrence_at_or_after(
                    ref, length, g
                ) or 0
            self.quiet[uid] = found
        return found

    # -- The variable-epsilon closure ---------------------------------------
    def ve_closure(self, uid: int) -> tuple:
        """``(id, shared key)`` for each state ``uid`` reaches by one burst.

        Mirrors the explicit ``A_eq``'s VE closures: paths fire all of
        a gap's markers on one edge, so the closure is the state, its
        burst successors, and the final state for fully-closed states
        at gap ``N+1``.  A fired state's closure was stored when it was
        interned.  An unfired state's is its own entry (with the final
        state when it is complete at ``N + 1``, and then it has no
        burst), followed by the stored closure of each burst successor:
        at most one of those is complete, so the final state appears at
        most once.
        """
        cached = self.closures[uid]
        if cached is None:
            u: tuple = self.states[uid]  # type: ignore[assignment]
            closure = [(uid, self._keys[self.var_states[uid]][0])]
            closures = self.closures
            if u[3] == self.full_mask:
                if u[0] == self.n + 1:
                    closure.append(self._final_entry)
            else:
                for t in self._fire_targets(u):
                    closure += closures[t]  # type: ignore[arg-type]
            cached = closures[uid] = tuple(closure)
        return cached

    def advance(self, uid: int) -> int:
        """The state after reading the character at the current gap.

        ``-1`` when the state is provably dead at the next gap, so the
        product skips the whole doomed branch.  With a length fixed, a
        state dies once an open variable passes its close boundary, or
        when a still-unopened variable has no occurrence of the value
        left from the next gap on.  With none fixed, every span reaches
        past this gap, so a still-unopened variable must find the first
        ``g + 1 - lo`` characters from the earliest open start ``lo``
        again from the next gap on.  Each check is an index into the
        substring index's class tables.
        """
        cached = self.advances[uid]
        if cached is not None:
            return cached
        state: tuple = self.states[uid]  # type: ignore[assignment]
        g, _fired, opens, closed_mask, length, ref = state
        dead = False
        if length is None:
            if opens and len(opens) < self.k:
                lo = opens[0][1]
                for _j, p in opens:
                    if p < lo:
                        lo = p
                table = self.class_tables.get(g + 1 - lo)
                if table is None:
                    table = self.index.classes(g + 1 - lo)
                reps, starts = table
                dead = starts[reps[lo]][-1] <= g
        else:
            open_mask = 0
            for j, p in opens:
                if p + length <= g:  # close boundary missed
                    dead = True
                    break
                open_mask |= 1 << j
            if not dead and self.full_mask & ~closed_mask & ~open_mask:
                dead = self.class_tables[length][1][ref][-1] <= g
        if dead:
            nxt = -1
        else:
            nxt_state = (g + 1, False, opens, closed_mask, length, ref)
            nxt = self._ids.get(nxt_state)  # type: ignore[assignment]
            if nxt is None:
                nxt = self._add(nxt_state, self.var_states[uid])
        self.advances[uid] = nxt
        return nxt

    # -- Burst enumeration ---------------------------------------------------
    def _fire_targets(self, u: tuple) -> list[int]:
        """The ids of all valid one-burst successors of the unfired ``u``.

        Runs the state's burst :func:`_skeleton`, filtered by the
        static operand's shared-variable moves (:class:`_BurstTable`,
        cached on the static tables' ``views``): a burst no static
        closure can follow is never tried, and its target never
        interned.  A burst is kept only when the new partial assignment
        still extends to a full equal-span choice of ``s``: closed spans
        agree on length and value, open variables can still close on
        that value, and still-unopened variables find an occurrence
        later.  Every check is an index into the substring index's class
        tables, one dict read per length.  A state whose variables are
        all open at one forgotten start has one burst, closing them
        all, when the static operand can follow it.
        """
        g, _fired, opens, closed_mask, length, ref = u
        ids = self._ids
        k = self.k
        full_mask = self.full_mask
        if opens == self.merged_opens:
            if not self.bursts.merged_closes:
                return []
            done = (g, True, (), full_mask, None, None)
            found = ids.get(done)
            if found is None:
                found = self._add(done, (CLOSED,) * k)
            return [found]
        n1 = self.n + 1
        tables = self.class_tables
        classes = self.index.classes
        # Start per open variable, and this gap at index ``k``.
        at = [0] * (k + 1)
        at[k] = g
        open_mask = 0
        for j, p in opens:
            at[j] = p
            open_mask |= 1 << j
        start_of = at.__getitem__
        at_end = g == n1
        reps: list[int] = []
        starts: list = []
        if length is not None:
            reps, starts = tables[length]
        skeleton = self.bursts[(closed_mask, open_mask)]
        out: list[int] = []
        for (
            first, others, empty, picks, layout, kind, new_closed, unopened,
            states,
        ) in skeleton:
            if at_end and (picks or unopened):
                continue  # nothing can open, close or occur after N+1
            new_len, new_ref, new_reps, new_starts = length, ref, reps, starts
            if first >= 0 or empty:
                # Fix (or check against) the group's common length/value.
                start = g
                if first >= 0:
                    start = at[first]
                    unequal = False
                    for j in others:
                        if at[j] != start:
                            unequal = True
                            break
                    if unequal:
                        continue  # unequal span lengths
                span_len = g - start
                if length is None:
                    new_len = span_len
                    table = tables.get(span_len)
                    if table is None:
                        table = classes(span_len)
                    new_reps, new_starts = table
                    new_ref = new_reps[start]
                elif span_len != length or reps[start] != ref:
                    continue
            open_starts = tuple(map(start_of, picks)) if picks else ()
            if new_len is not None:
                # Still-open variables must be closable later, and
                # still-unopened ones must find an occurrence later.
                dead = False
                for p in open_starts:
                    close_gap = p + new_len
                    if (
                        close_gap <= g
                        or close_gap > n1
                        or new_reps[p] != new_ref
                    ):
                        dead = True
                        break
                if dead or (unopened and new_starts[new_ref][-1] <= g):
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
                needed = g + 1 - lo
                if len(open_starts) > 1 and needed > n1 - max(open_starts):
                    continue
                table = tables.get(needed)
                if table is None:
                    table = classes(needed)
                extension = table[0]
                if unopened and table[1][extension[lo]][-1] <= g:
                    continue
                if len(open_starts) > 1:
                    value = extension[open_starts[0]]
                    unequal = False
                    for p in open_starts:
                        if extension[p] != value:
                            unequal = True
                            break
                    if unequal:
                        continue
            if kind == _PARTIAL:
                target = (
                    g, True, tuple(zip(layout, open_starts)), new_closed,
                    new_len, new_ref,
                )
            elif kind == _COMPLETE:
                # Completed groups merge across all choices.
                target = (g, True, (), full_mask, None, None)
            else:
                # Every variable opens here: the start is forgotten.
                target = (g, True, self.merged_opens, 0, None, None)
            found = ids.get(target)
            if found is None:
                found = self._add(target, states)
            if found not in out:
                out.append(found)
        return out


def _backward_reachable(
    tables: AutomatonTables, s: str
) -> tuple[list[frozenset[int]], list[tuple]]:
    """Per-gap static states that can still finish on the rest of ``s``.

    Returns ``(reach, reads)``.  ``reach[g]`` (1-based, ``1 .. N+1``)
    holds every static state from which the final state is reachable
    while reading exactly ``s[g-1:]`` — the sound over-approximation
    the product uses to cut branches the static operand can never
    complete.  ``reads[g][q]`` lists, in edge order, the targets of
    ``q``'s terminal edges that read ``s[g-1]`` into ``reach[g+1]``.

    Each gap is one step of a lazy DFA on the tables' shared
    :class:`~repro.runtime.tables.StateSetMemo`: the states that read
    on at gap ``g + 1`` and the character ``s[g-1]`` decide the gap's
    row and the states that read on at ``g``
    (:meth:`~repro.runtime.tables.StateSetMemo.backward`).  Across a
    stream these sets come from a tiny pool, so a warm document pays a
    few dict reads per gap.
    """
    n = len(s)
    memo = tables.state_memo()
    contexts = memo.contexts
    reach: list[frozenset[int]] = [frozenset()] * (n + 2)
    reads: list[tuple] = [()] * (n + 1)
    target = memo.accept
    for g in range(n, -1, -1):
        ch = s[g - 1] if g else ROOT_STEP
        ctx = contexts[target].get(ch)
        if ctx is None:
            ctx = memo.context(target, ch)
        step = ctx.backward
        if step is None:
            step = memo.backward(tables, ctx)
        target, reach[g + 1], reads[g] = step
    return reach, reads


def _busy_gaps(q: int, reads: list[tuple], n: int) -> list[int]:
    """Per gap ``g``, the first gap ``>= g`` where static state ``q`` does
    more than read its character into itself (``N + 1`` at the latest)."""
    alone = (q,)
    until = [n + 1] * (n + 2)
    for g in range(n, 0, -1):
        until[g] = until[g + 1] if reads[g][q] == alone else g
    return until


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
    order) and its terminal successors (next gap), and per gap the ids
    there that have a terminal successor (:attr:`readers`, ascending).
    A silent pair (see the module docstring) takes the id of its
    pair at the last gap of its stretch; :attr:`stretches` maps each
    such stretch id to the gaps where other pairs lead into it, the
    earliest being the first gap it stands for.  :meth:`automaton`
    turns the record into the product automaton; :meth:`levels` into
    the per-gap levels of the walk.
    """

    __slots__ = (
        "op",
        "eq",
        "s",
        "variables",
        "union_vars",
        "plan",
        "pairs",
        "readers",
        "bursts",
        "terminals",
        "stretches",
        "final",
        "tables",
    )

    def __init__(
        self,
        tables: AutomatonTables,
        group: tuple[str, ...],
        s: str,
        index: SubstringIndex,
    ):
        self.s = s
        self.tables = tables
        self.variables = variables = tables.variables | set(group)
        self.final: int | None = None
        self.pairs: list[tuple] = []
        self.stretches: dict[int, list[int]] = {}
        if tables.is_empty:
            return
        shared = tuple(v for v in group if v in tables.variables)
        op = self.op = operand_view(tables, shared)
        group_pos = {v: i for i, v in enumerate(group)}
        shared_idx = tuple(group_pos[v] for v in shared)
        burst_key = ("equality-bursts", group)
        burst_table = tables.views.get(burst_key)
        if burst_table is None:
            burst_table = tables.views.setdefault(
                burst_key, _BurstTable(len(group), shared_idx, op)
            )
        eq = self.eq = _ImplicitEqualityOperand(
            len(group), s, index, shared_idx, burst_table
        )
        n = len(s)

        reach, reads = _backward_reachable(tables, s)
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
        ids: dict[int, int] = {}
        pairs = self.pairs
        readers: list[list[int]] = [[] for _ in range(n + 1)]
        bursts: list[tuple[int, ...]] = []
        terminals: list[tuple[int, ...]] = []
        stretches = self.stretches
        ve_by_key = op.ve_by_key
        closures = eq.closures
        advances = eq.advances
        quiet = eq.quiet
        # Static states whose closure holds no other state of their own
        # shared key: paired with a quiet implicit state they have no
        # burst, and at a gap where they read into themselves alone they
        # only read on.  ``busy[q][g]`` is the first gap ``>= g`` where
        # ``q`` does anything else (``N + 1`` at the latest).
        solo = [
            buckets.get(key) == (q,)
            for q, (buckets, key) in enumerate(zip(ve_by_key, op.shared_key))
        ]
        busy: dict[int, list[int]] = {}

        def add(q1: int, vid: int, g: int, key: int) -> int:
            """The id of the new pair ``(q1, vid)`` at gap ``g``.

            A silent pair joins the stretch of the pair it reads on to,
            unchanged, at the first gap where it is not silent.
            """
            end = quiet[vid]
            if end is None:
                end = eq.quiet_until(vid)
            if end > g and solo[q1]:
                until = busy.get(q1)
                if until is None:
                    until = busy[q1] = _busy_gaps(q1, reads, n)
                if until[g] < end:
                    end = until[g]
                if end > g:
                    end_uid = eq.at_gap(vid, end)
                    end_key = end_uid * n_static + q1
                    dst = ids.get(end_key)
                    if dst is None:
                        dst = ids[end_key] = len(pairs)
                        pairs.append((q1, end_uid))
                    # Each key is added once, so each gap enters once.
                    entries = stretches.get(dst)
                    if entries is None:
                        stretches[dst] = [g]
                    else:
                        entries.append(g)
                    ids[key] = dst
                    return dst
            dst = ids[key] = len(pairs)
            pairs.append((q1, vid))
            return dst

        add(initial1, eq.initial, 1, eq.initial * n_static + initial1)
        empty: tuple[int, ...] = ()
        # ``pairs`` grows as the loop runs; a list iterator reads the
        # length at every step, so the loop visits each pair once, in
        # discovery order.
        for p1, uid in pairs:
            if uid == FINAL:
                # Only the true final pair is ever built, and it has no
                # outgoing moves.
                bursts.append(empty)
                terminals.append(empty)
                continue
            g = eq_states[uid][0]  # type: ignore[index]

            # Rule (a): burst transitions — every consistent pair of the
            # static VE closure with the implicit operand's closure, found
            # bucket-by-bucket on the shared-variable configuration.  A
            # pair's two sides always share their key, so when the
            # implicit closure is the state alone and the static one
            # holds no other state of that key, the pair has none.
            closure = closures[uid]
            if closure is None:
                closure = eq.ve_closure(uid)
            if len(closure) == 1 and solo[p1]:
                bursts.append(empty)
            else:
                reach_g = reach[g]
                buckets1 = ve_by_key[p1]
                out: list[int] = []
                for vid, key in closure:
                    qs = buckets1.get(key)
                    if qs is None:
                        continue
                    base = vid * n_static
                    for q1 in qs:
                        if vid == FINAL:
                            # Only the true final pair survives: FINAL has
                            # no outgoing moves, so anything else is dead
                            # weight.
                            if q1 != final1:
                                continue
                        elif q1 not in reach_g or (q1 == p1 and vid == uid):
                            continue
                        dst = ids.get(base + q1)
                        if dst is None:
                            dst = add(q1, vid, g, base + q1)
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
                        base = next_uid * n_static
                        found: list[int] = []
                        for r1 in targets:
                            dst = ids.get(base + r1)
                            if dst is None:
                                dst = add(r1, next_uid, g + 1, base + r1)
                            found.append(dst)
                        succ = tuple(found)
                        readers[g].append(len(terminals))
            terminals.append(succ)
        self.readers = readers
        self.bursts = bursts
        self.terminals = terminals
        self.final = ids.get(FINAL * n_static + final1)

    def end_gap(self, i: int) -> int:
        """The gap of id ``i``'s pair: the last gap of its stretch."""
        state = self.eq.states[self.pairs[i][1]]
        return len(self.s) + 1 if state is None else state[0]

    # -- The reference product automaton ------------------------------------
    def automaton(self) -> VSetAutomaton:
        """The product as a trimmed vset-automaton.

        State ``i`` is id ``i`` at its own gap; a stretch id gets one
        more state per earlier gap of its stretch, each reading its
        gap's character into the next, so every product state the
        stretch stands for is a state again.  Burst edges carry the
        marker set between the merged configurations of their ends
        (epsilon when it is empty); terminal edges read the gap's
        character.
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
        end_gap = self.end_gap
        # The state of stretch id ``q`` at an earlier gap ``g`` of its
        # stretch is ``inner[q] + g``.
        inner: dict[int, int] = {}
        n_states = len(pairs)
        starts = {q: min(entries) for q, entries in self.stretches.items()}
        for q, start in starts.items():
            inner[q] = n_states - start
            n_states += end_gap(q) - start

        def state_at(q: int, g: int) -> int:
            base = inner.get(q)
            return q if base is None or g == end_gap(q) else base + g

        ops_cache: dict[tuple, frozenset] = {}
        reads = [char_pred(ch) for ch in self.s]
        nfa = NFA()
        nfa.add_states(n_states)
        nfa.set_initial(state_at(0, 1))
        for src in range(len(pairs)):
            g = end_gap(src)
            src_merged = merged[src]
            for dst in self.bursts[src]:
                ops_key = (src_merged, merged[dst])
                ops = ops_cache.get(ops_key)
                if ops is None:
                    ops = ops_cache[ops_key] = src_merged.markers_to(
                        merged[dst]
                    )
                nfa.add_transition(
                    src, ops if ops else EPSILON, state_at(dst, g)
                )
            for dst in self.terminals[src]:
                nfa.add_transition(src, reads[g - 1], state_at(dst, g + 1))
        for q, start in starts.items():
            for g in range(start, end_gap(q)):
                nfa.add_transition(
                    inner[q] + g, reads[g - 1], state_at(q, g + 1)
                )
        nfa.add_final(self.final)
        return VSetAutomaton(nfa, self.variables).trimmed()

    # -- The walk's levels ---------------------------------------------------
    def letters(self, head: tuple[str, ...]) -> list:
        """Per id, its pair's merged configuration projected onto ``head``
        (sorted) as a ``states`` tuple: the id's letter.

        Read off the :class:`_LetterTable` of the static tables and the
        head's plan, which serves every document.
        """
        pairs = self.pairs
        if self.final is None:
            return [None] * len(pairs)
        position = {v: i for i, v in enumerate(self.union_vars)}
        head_plan = tuple(self.plan[position[v]] for v in head)
        views = self.tables.views
        key = ("equality-letters", head_plan)
        table = views.get(key)
        if table is None:
            table = views.setdefault(
                key, _LetterTable(len(self.op.ve), self.op.configs, head_plan)
            )
        n_static = table.n_static
        codes = self.eq.codes
        return [table[codes[uid] * n_static + p1] for p1, uid in pairs]

    def levels(
        self, letters: list, offset: int, memos: list[dict]
    ) -> tuple[tuple, dict]:
        """Fill ``memos`` with the children of every live id: one backward
        pass over the record.

        ``letters`` are this product's (:meth:`letters`), and its ids
        start at ``offset`` in the level source; ids in ``memos`` are
        shifted by it.  An id is *live* when it can still reach the
        final pair.  A pair's burst successors are closed under bursts
        (the static VE closures are transitive, and a fired implicit
        state only reaches the final state, which its source's closure
        holds too), so an id's live closure at its own gap is itself and
        its bursts, each kept when live.  Grouped by letter (letters
        ascending), it is kept per id, so a successor that several ids
        read on to is grouped once.

        Each gap ``g``, from ``N`` down, settles the ids at ``g`` that
        read on (:attr:`readers`; the unfired pairs that only hold
        bursts are not visited): such an id is live when the grouped
        live closures of its terminal successors at ``g + 1`` are not
        empty, and ``memos[g]`` maps the id, alone, to them.  A stretch
        id stands for itself at every gap of its stretch before its own,
        and is as live there as its closure at its own gap ``end``.  The
        pass settles it on reaching ``end - 1``: that closure is the
        id's children at ``end - 1``, and below it the id's grouped
        closure is the id alone (or nothing).

        Returns ``(initial, stretches)``: the initial pair's grouped live
        closure at gap 1, and each live stretch id, shifted, mapped to
        ``(entries, end)``: the gaps where other ids lead into its
        stretch, and its own gap.
        """
        if self.final is None:
            return (), {}
        pairs = self.pairs
        bursts = self.bursts
        terminals = self.terminals
        stretches = self.stretches
        # ``units[i]`` is ``(i + offset,)`` once ``i`` is live at its own
        # gap (``None`` before): the key of its children and, shared, the
        # set of each closure it is alone in.
        units: list = [None] * len(pairs)
        units[self.final] = (self.final + offset,)
        grouped: list = [None] * len(pairs)
        # Stretch ids by their own gap (a stretch id is never final);
        # ``silent[q]`` is the own gap of one that is live before it and
        # dead at it.
        eq_states = self.eq.states
        ends: dict[int, list[int]] = {}
        for q in stretches:
            end = eq_states[pairs[q][1]][0]  # type: ignore[index]
            ends.setdefault(end, []).append(q)
        silent: dict[int, int] = {}
        live_ends: dict[int, int] = {}
        inside: dict[int, tuple] = {}
        readers = self.readers
        for g in range(len(self.s), 0, -1):
            settled = ends.get(g + 1)
            if settled:
                for q in settled:
                    kids = grouped[q] = _closure(
                        q, g + 1, bursts[q], units, silent, letters, offset
                    )
                    if kids:
                        unit = units[q]
                        if unit is None:
                            unit = (q + offset,)
                            silent[q] = g + 1
                        memos[g][unit] = kids
                        live_ends[q] = g + 1
                        inside[q] = ((letters[q], unit),)
            memo = memos[g]
            for p in readers[g]:
                targets = terminals[p]
                if len(targets) == 1:
                    r = targets[0]
                    kids = grouped[r]
                    if kids is None:
                        burst = bursts[r]
                        if burst:
                            kids = _closure(
                                r, g + 1, burst, units, silent, letters,
                                offset,
                            )
                        else:
                            unit = units[r]
                            kids = ((letters[r], unit),) if unit else ()
                        grouped[r] = kids
                else:
                    reached: set[int] = set()
                    for r in targets:
                        kids = grouped[r]
                        if kids is None:
                            kids = grouped[r] = _closure(
                                r, g + 1, bursts[r], units, silent,
                                letters, offset,
                            )
                        for _letter, ids in kids:
                            reached.update(ids)
                    kids = _group(sorted(reached), letters, offset)
                if kids:
                    unit = units[p] = (p + offset,)
                    memo[unit] = kids
            if settled:
                # Below ``g + 1`` a stretch id ending there is silent.
                for q in settled:
                    grouped[q] = inside.get(q, ())
        initial = grouped[0]
        if initial is None:
            initial = _closure(0, 1, bursts[0], units, silent, letters, offset)
        return initial, {
            q + offset: (entries, live_ends[q])
            for q, entries in stretches.items()
            if q in live_ends
        }


def _closure(
    r: int,
    g: int,
    burst: tuple[int, ...],
    units: list,
    silent: dict[int, int],
    letters: list,
    offset: int,
) -> tuple:
    """The live closure of id ``r`` at its own gap ``g``, grouped.

    ``burst`` is ``r``'s burst successors and ``units`` the live ids'
    one-id sets (see :meth:`EqualityProduct.levels`); a stretch id
    among the successors that ends after ``g`` counts when it is live
    inside its stretch.  Returns ``(letter, ids)`` pairs, letters
    ascending, ids (shifted by ``offset``) ascending.
    """
    own = units[r]
    if len(burst) == 1:
        # The most common shape: an unfired pair and one fired successor.
        q = burst[0]
        unit = units[q]
        if unit is None:
            if silent.get(q, 0) <= g:
                return ((letters[r], own),) if own else ()
            unit = (q + offset,)
        if own is None:
            return ((letters[q], unit),)
        first, second = letters[r], letters[q]
        if q < r:
            r, q, first, second, own, unit = q, r, second, first, unit, own
        if first == second:
            return ((first, (r + offset, q + offset)),)
        if first < second:
            return ((first, own), (second, unit))
        return ((second, unit), (first, own))
    members = [r] if own else []
    for q in burst:
        if units[q] or silent.get(q, 0) > g:
            members.append(q)
    if len(members) < 2:
        if not members:
            return ()
        q = members[0]
        return ((letters[q], units[q] or (q + offset,)),)
    members.sort()
    return _group([q + offset for q in members], letters, offset)


def _group(ids: Sequence[int], letters: list, offset: int = 0) -> tuple:
    """``(letter, ids)`` pairs of the ascending ``ids``, letters ascending;
    id ``i``'s letter is ``letters[i - offset]``."""
    by_letter: dict[tuple[int, ...], list[int]] = {}
    for q in ids:
        letter = letters[q - offset]
        found = by_letter.get(letter)
        if found is None:
            by_letter[letter] = [q]
        else:
            found.append(q)
    return tuple(
        (letter, tuple(found)) for letter, found in sorted(by_letter.items())
    )


class _LetterTable(dict):
    """Head letters of product pairs, keyed ``code * n_static + state``.

    A pair's letter is its merged configuration projected onto the head:
    per head variable, its state on the static side, or for a group
    variable the digit of the implicit state's :func:`_code`.  Neither
    depends on the document, so one table per static tables and head
    plan serves every document.  It rides on the tables' ``views``,
    which are never pickled, holds at most ``n_static * 3^k`` entries of
    ints and tuples, and fills on first read; an entry is built whole
    before it is stored, so threads may share the table.
    """

    __slots__ = ("n_static", "configs", "head_plan")

    def __init__(self, n_static: int, configs: list, head_plan: tuple):
        super().__init__()
        self.n_static = n_static
        self.configs = configs
        self.head_plan = head_plan

    def __missing__(self, key: int) -> tuple[int, ...]:
        code, p1 = divmod(key, self.n_static)
        states1 = self.configs[p1].states
        letter = tuple(
            code // 3**j % 3 if side else states1[j]
            for side, j in self.head_plan
        )
        return self.setdefault(key, letter)


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
    automaton, trim, projection, tables or ``A_G``.  A set is a sorted
    tuple of product ids, and a union of disjuncts is the union of
    their levels over disjoint id ranges.  Most ids sit at one gap
    (level); a stretch id stands for its pair at every gap of its
    silent stretch, where its only successor is itself, so the
    children of a set depend on its level and are memoized per level.
    One backward pass per record (:meth:`EqualityProduct.levels`)
    fills the children of every single live id at its own gap, and of
    a stretch id at the gap before its own, so a forced step of the
    walk is a dict read; children of other sets unite those of their
    ids on demand.  Each id's letter (the head-projected configuration)
    comes from a table shared across documents
    (:meth:`EqualityProduct.letters`).  Grouping successors by letter
    and uniting their sets removes duplicates exactly as projection
    plus determinization do, so the walk yields the tuples of the
    compiled automaton in its radix order.
    """

    __slots__ = (
        "n_slots",
        "variables",
        "is_empty",
        "_letters",
        "_stretches",
        "_memos",
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
        parts = [product.letters(ordered) for product in products]
        letters = (
            parts[0] if len(parts) == 1
            else [letter for part in parts for letter in part]
        )
        memos: list[dict] = [{} for _ in range(n_slots)]
        stretches: dict[int, tuple[list[int], int]] = {}
        initial: dict[tuple[int, ...], tuple[int, ...]] = {}
        offset = 0
        for product, part in zip(products, parts):
            kids, part_stretches = product.levels(part, offset, memos)
            for letter, ids in kids:
                initial[letter] = initial.get(letter, ()) + ids
            stretches.update(part_stretches)
            offset += len(part)
        memos[0][self.root] = tuple(sorted(initial.items()))
        self.is_empty = not initial
        self._letters = letters
        self._stretches = stretches
        self._memos = memos

    def children_memos(self) -> list[dict]:
        return self._memos

    def children(self, states: tuple[int, ...], level: int) -> tuple:
        memo = self._memos[level]
        stretches = self._stretches
        reached: set[int] = set()
        for p in states:
            stretch = stretches.get(p) if stretches else None
            if stretch is not None and level < stretch[1] - 1:
                # Inside its stretch: silent up to the gap before its own.
                reached.add(p)
            else:
                for _letter, ids in memo[(p,)]:
                    reached.update(ids)
        found = _group(sorted(reached), self._letters)
        memo[states] = found
        return found

    def jumps(self) -> list[tuple]:
        """Each live stretch id, as one jump per gap that enters it.

        Up to the gap before its own, the set holding the stretch id
        alone has one child, with the id's letter, and that child is
        the same set one level on: from a gap where the walk enters the
        stretch it lands on the gap before the id's own in one step.
        A stretch whose letter is all-``CLOSED`` is left out, since the
        walk ends a word there.
        """
        closed = (CLOSED,) * len(self.variables)
        letters = self._letters
        return [
            (start, (i,), end - 1, (i,), letters[i])
            for i, (entries, end) in self._stretches.items()
            if letters[i] != closed
            for start in entries
            if start < end - 1
        ]


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
        the same document — the fused serving path does, so each
        length's class arrays are built once per document instead of
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
