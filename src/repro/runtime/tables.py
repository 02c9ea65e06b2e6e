"""String-independent automaton tables (the compiled half of Theorem 3.3).

Theorem 3.3 splits evaluation of ``[[A]](s)`` into preprocessing and
enumeration, but a large share of the "preprocessing" never looks at the
string at all: trimming, the configuration sweep of §4.1, the
variable-epsilon closures of Lemma 3.10's proof, and the per-state
terminal-edge lists.  :class:`AutomatonTables` hoists exactly that
string-independent work into a reusable artifact so that a fixed query
workload streamed over many documents (the serving scenario of Kalmbach
et al. 2022) pays it once per automaton instead of once per
``(automaton, string)`` pair.

On top of the static tables sits the **burst-step table**: for each
distinct character ``σ``, a row mapping

    ``state p  ->  tuple of states reachable by (terminal edge reading σ)
                   followed by a variable-epsilon burst``

so the evaluation-graph construction's inner ``pred.matches(ch)`` loop
collapses into a single indexed lookup per frontier state.  Rows are
compact state-indexed tuples (one ``tuple[int, ...]`` per state, ``()``
when the character is not readable there), built lazily on first sight
of a character and bounded by :data:`BURST_TABLE_MAX_ROWS`.

On top of the burst rows sits the **state-set memo**
(:class:`StateSetMemo`): automaton-state sets interned to ints, and the
forward, live and children steps between them that compiled evaluation
(:mod:`repro.enumeration.statesets`) reads instead of building a
per-document ``A_G``, plus the backward steps the fused equality
product (:mod:`repro.runtime.equality`) reads instead of re-sweeping
each document.  It fills lazily, is bounded by
:data:`STATE_MEMO_MAX_ENTRIES`, and is safe to share across threads.

**Pickling.**  ``AutomatonTables`` is an explicit serialization
contract (``__getstate__``/``__setstate__``) so that one compiled
artifact can be shipped to every worker process and stored by content
fingerprint: the prepared automaton, configurations, closures and
terminal edges survive the round trip, and pickle's memo preserves the
interning of shared closure tuples and configurations.  Everything a
document fills in — the burst rows, the state-set memo and the
``views`` scratch dict (in-memory derived caches, e.g. the join's
operand buckets) — is a per-process cache: it is never pickled and
rebuilds lazily on the other side, so an artifact's bytes depend on
the automaton alone, not on which documents were evaluated before.

:func:`tables_for` memoizes tables per automaton *object* (weakly, so
dropping the automaton frees its tables); it is shared by
:class:`~repro.runtime.compiled.CompiledSpanner` and the join product
construction (:mod:`repro.vset.join`), which means joining a cached
operand twice never recomputes its closures.
"""

from __future__ import annotations

import threading

from ..alphabet import (
    SortedPickle,
    is_epsilon,
    is_marker,
    is_marker_set,
    is_symbol,
)
from ..automata.ops import closure
from ..errors import NotFunctionalError
from ..vset.automaton import VSetAutomaton
from ..vset.configurations import (
    WAITING,
    VariableConfiguration,
    compute_state_configurations,
)
from .cache import WeakCache

__all__ = ["AutomatonTables", "StateSetMemo", "StepContext", "tables_for"]

#: Maximum number of distinct characters the burst-step table caches.
#: Real workloads converge on a few dozen rows; the cap only matters
#: for adversarial unicode-diverse streams, where rows past the cap are
#: computed per call (predicate fallback) instead of growing memory
#: with input character diversity.
BURST_TABLE_MAX_ROWS = 512

#: Maximum number of entries (interned state sets plus forward, live,
#: step-context and children entries) one :class:`StateSetMemo` holds.
#: Per query, real streams settle at a few hundred interned sets; the
#: cap only bounds adversarial streams.  A memo is never cleared in
#: place — a live walk holds ids into it — so once the cap is reached
#: the next document starts on a fresh memo and the old one dies with
#: the last evaluation still reading it.
STATE_MEMO_MAX_ENTRIES = 1 << 15

#: One burst row: successor tuples indexed by state (``()`` = none).
BurstRow = "tuple[tuple[int, ...], ...]"

#: The step out of the virtual root at level 0: it reads no document
#: character (no character is the empty string); its successors are
#: the initial variable-epsilon burst.
ROOT_STEP = ""

#: Guards installing a fresh :class:`StateSetMemo` on a tables object.
_MEMO_LOCK = threading.Lock()


def _variable_epsilon(label: object) -> bool:
    """Labels traversable inside a burst: epsilon and variable markers."""
    return is_epsilon(label) or is_marker(label) or is_marker_set(label)


class AutomatonTables:
    """Every string-independent artifact of Theorem 3.3's preprocessing.

    Attributes:
        automaton: the prepared automaton the tables describe — trimmed,
            and additionally epsilon-compacted when ``compact=True``.
        variables: ``Vars(A)`` (decoding needs it even when empty).
        is_empty: True when ``R(A)`` is empty; all other tables are then
            empty placeholders.
        configs: per-state variable configurations ``~c_q`` (§4.1).
        final_config: ``~c_{q_f}`` (None on an empty language).
        ve: per-state variable-epsilon closures as sorted, interned
            tuples — states sharing a closure share one tuple object.
        terminal_edges: per-state ``(predicate, dst)`` lists.
        views: a scratch dict for downstream layers (e.g. the join's
            per-shared-variable-set operand buckets) to cache derived
            data alongside the tables.  Not pickled.

    The burst rows (:meth:`burst_step`) and the state-set memo
    (:meth:`state_memo`) are not pickled either.
    """

    __slots__ = (
        "automaton",
        "variables",
        "is_empty",
        "configs",
        "final_config",
        "ve",
        "initial_ve",
        "terminal_edges",
        "views",
        "_burst",
        "_memo",
        "__weakref__",
    )

    def __init__(self, automaton: VSetAutomaton, *, compact: bool = False):
        # Deliberately no reference back to ``automaton``: tables_for's
        # weak cache must not have values that pin their keys alive.
        self.variables = automaton.variables
        prepared = automaton.compacted() if compact else automaton.trimmed()
        self.automaton = prepared
        self.is_empty = prepared.is_empty_language()
        self.views: dict[object, object] = {}
        self._burst: dict[str, BurstRow] = {}
        self._memo: StateSetMemo | None = None
        if self.is_empty:
            self.configs: tuple[VariableConfiguration | None, ...] = ()
            self.final_config: VariableConfiguration | None = None
            self.ve: tuple[tuple[int, ...], ...] = ()
            self.initial_ve: tuple[int, ...] = ()
            self.terminal_edges: tuple[tuple, ...] = ()
            return
        self.configs = tuple(compute_state_configurations(prepared))
        self.final_config = self.configs[prepared.final]
        nfa = prepared.nfa
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.ve = tuple(
            _intern(closure(nfa, (q,), _variable_epsilon), interned)
            for q in range(nfa.n_states)
        )
        self.initial_ve = self.ve[prepared.initial]
        self.terminal_edges = tuple(
            tuple(
                (label, dst)
                for label, dst in nfa.transitions[q]
                if is_symbol(label)
            )
            for q in range(nfa.n_states)
        )

    # -- Functionality gate -------------------------------------------------
    def require_all_closed_final(self) -> None:
        """Raise unless ``~c_{q_f}`` closes every variable (Theorem 3.3)."""
        if self.final_config is None or not self.final_config.is_all_closed:
            raise NotFunctionalError(
                "final state configuration leaves variables unclosed"
            )

    # -- The character-indexed burst-step table -----------------------------
    def burst_step(self, ch: str) -> BurstRow:
        """``state -> successors-after-VE`` for one input character.

        Built on first sight of ``ch`` by the predicate-match fallback
        (one ``pred.matches`` sweep over the terminal edges), then
        served from the cache for every later occurrence — in this
        document or any other.  The cache is bounded by
        :data:`BURST_TABLE_MAX_ROWS` so character-diverse streams
        cannot grow it without limit; overflow rows are recomputed per
        call.
        """
        row = self._burst.get(ch)
        if row is None:
            row = self._build_burst(ch)
            if len(self._burst) < BURST_TABLE_MAX_ROWS:
                self._burst[ch] = row
        return row

    def _build_burst(self, ch: str) -> BurstRow:
        rows: list[tuple[int, ...]] = []
        for edges in self.terminal_edges:
            succs: set[int] | None = None
            for pred, r in edges:
                if pred.matches(ch):
                    if succs is None:
                        succs = set(self.ve[r])
                    else:
                        succs.update(self.ve[r])
            rows.append(tuple(sorted(succs)) if succs else ())
        return tuple(rows)

    @property
    def distinct_characters_seen(self) -> int:
        """How many burst-table rows exist (introspection / tests)."""
        return len(self._burst)

    # -- State-set evaluation ---------------------------------------------
    def state_memo(self) -> "StateSetMemo":
        """The shared :class:`StateSetMemo` a document evaluates against.

        Created on first use.  Once it holds
        :data:`STATE_MEMO_MAX_ENTRIES` entries the next document starts
        on a fresh memo; evaluations still reading the old one keep it
        alive until they finish.  Call once per document and keep the
        result: the ids a document stores belong to that memo.
        """
        memo = self._memo
        if memo is None or memo.size >= STATE_MEMO_MAX_ENTRIES:
            with _MEMO_LOCK:
                memo = self._memo
                if memo is None or memo.size >= STATE_MEMO_MAX_ENTRIES:
                    memo = self._memo = StateSetMemo(self)
        return memo

    @property
    def state_memo_entries(self) -> int:
        """Entries in the current state-set memo (0 before first use)."""
        return 0 if self._memo is None else self._memo.size

    # -- Serialization (the fleet shipping and store contract) -------------
    def __getstate__(self) -> dict:
        return {
            "automaton": self.automaton,
            "variables": SortedPickle(self.variables),
            "is_empty": self.is_empty,
            "configs": self.configs,
            "final_config": self.final_config,
            "ve": self.ve,
            "initial_ve": self.initial_ve,
            "terminal_edges": self.terminal_edges,
        }

    def __setstate__(self, state: dict) -> None:
        self.automaton = state["automaton"]
        self.variables = state["variables"]
        self.is_empty = state["is_empty"]
        self.configs = state["configs"]
        self.final_config = state["final_config"]
        self.ve = state["ve"]
        self.initial_ve = state["initial_ve"]
        self.terminal_edges = state["terminal_edges"]
        # Per-process caches rebuild lazily on first use.  Entries
        # pickled by older releases also carry their burst rows; they
        # are ignored.
        self._burst = {}
        self.views = {}
        self._memo = None


class StepContext:
    """The memos of one ``(character, live target set)`` pair.

    A document level reads its character (:data:`ROOT_STEP` at the
    root) into the live set of the level after it, the *target*.  Every
    level of every document with the same pair shares this record:

    * ``live`` maps a forward set to ``(live, part, fires)``: its subset
      that can still reach the target — the backward pass that replaces
      :meth:`~repro.automata.leveled.LeveledNFA.prune` — then that
      subset's all-``WAITING`` part and whether the part has a child with
      another letter, which lets the walk jump the levels where no
      marker fires on the all-``WAITING`` word;
    * ``children`` maps a live set to its ``(letter, successor set)``
      pairs, letters ascending — the walk step that replaces the scan of
      ``A_G`` out-edges;
    * ``backward`` is the equality product's backward step over the
      whole automaton (:meth:`StateSetMemo.backward`), ``None`` until
      first use.

    Keys and sets are :class:`StateSetMemo` ids.
    """

    __slots__ = ("ch", "target", "live", "children", "backward")

    def __init__(self, ch: str, target: frozenset[int]):
        self.ch = ch
        self.target = target
        self.live: dict[int, tuple[int, int, bool]] = {}
        self.children: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}
        self.backward: tuple[int, frozenset[int], tuple] | None = None


class StateSetMemo:
    """Document-independent memos of state-set evaluation.

    The pruned ``A_G`` of a document is determined by one automaton-
    state set per level, and across a document stream those sets come
    from a small pool.  This memo interns them to dense ids (so memo
    keys hash in O(1)) and caches every step between them, the lazy-DFA
    view of Florenzano et al. (PODS 2018):

    * ``forward[S]`` maps a character to the set ``S`` reaches by one
      burst step (built from :meth:`AutomatonTables.burst_step` rows);
    * ``contexts[T]`` maps a character to the :class:`StepContext`
      whose live target is ``T``; the equality product's backward pass
      (:meth:`backward`) reads the same contexts.

    Ids index ``sets`` (the sorted state tuples).  The virtual root of
    ``A_G`` is the pseudo-state ``n`` (one past the last state), whose
    only step is :data:`ROOT_STEP` to the initial burst.

    Threads may share a memo: hits are lock-free reads, and every
    insertion runs under the memo's lock, so each set gets exactly one
    id and ``size`` (entries of every kind) is exact.  Entries are never
    removed; :meth:`AutomatonTables.state_memo` bounds the size by
    starting over on a fresh memo.
    """

    __slots__ = (
        "sets",
        "ids",
        "forward",
        "contexts",
        "size",
        "empty",
        "root",
        "initial",
        "accept",
        "_letters",
        "_waiting",
        "_root_row",
        "_lock",
    )

    def __init__(self, tables: AutomatonTables):
        self.sets: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.forward: list[dict[str, int]] = []
        self.contexts: list[dict[str, StepContext]] = []
        self.size = 0
        self._lock = threading.Lock()
        self._letters = tuple(config.states for config in tables.configs)
        self._waiting = (WAITING,) * len(tables.variables)
        n_states = len(tables.terminal_edges)
        self._root_row = ((),) * n_states + (tables.initial_ve,)
        self.empty = self.intern(())
        self.root = self.intern((n_states,))
        self.initial = self.intern(tables.initial_ve)
        self.accept = self.intern((tables.automaton.final,))

    def intern(self, states: tuple[int, ...]) -> int:
        """The id of a sorted state tuple, assigned on first sight."""
        found = self.ids.get(states)
        if found is None:
            with self._lock:
                found = self.ids.get(states)
                if found is None:
                    found = len(self.sets)
                    self.sets.append(states)
                    self.forward.append({})
                    self.contexts.append({})
                    # Published last: a reader that finds the id also
                    # finds its set and its memo rows.
                    self.ids[states] = found
                    self.size += 1
        return found

    def _insert(self, memo: dict, key: object, value: object) -> object:
        """Store a computed entry unless a racing thread stored it first."""
        with self._lock:
            found = memo.get(key)
            if found is None:
                memo[key] = found = value
                self.size += 1
        return found

    def _row(self, tables: AutomatonTables, ch: str) -> BurstRow:
        if ch == ROOT_STEP:
            return self._root_row
        return tables.burst_step(ch)

    # -- Miss paths (hits are plain dict reads at the call sites) ----------
    #
    # ``tables`` are the memo's own tables (the caller holds them).  The
    # memo keeps no reference to them: the tables own the memo, and a
    # reference back would leave both to the cyclic garbage collector.
    def step(self, tables: AutomatonTables, states: int, ch: str) -> int:
        """``forward[states][ch]``: the set ``states`` reaches on ``ch``."""
        row = tables.burst_step(ch)
        reached: set[int] = set()
        for p in self.sets[states]:
            reached.update(row[p])
        return self._insert(
            self.forward[states], ch, self.intern(tuple(sorted(reached)))
        )

    def context(self, target: int, ch: str) -> StepContext:
        """``contexts[target][ch]``, created on first use."""
        ctx = StepContext(ch, frozenset(self.sets[target]))
        return self._insert(self.contexts[target], ch, ctx)

    def live(
        self, tables: AutomatonTables, ctx: StepContext, states: int
    ) -> tuple[int, int, bool]:
        """``ctx.live[states]``: the members with a successor in the target,
        their all-``WAITING`` part, and whether that part fires.

        On the word whose letters are all ``WAITING``, the walk's set at
        a level is exactly the all-``WAITING`` part of the level's live
        set: a ``WAITING`` state's predecessors are ``WAITING`` too, and
        live.  The part *fires* when one of its children carries another
        letter (letters ascend from all-``WAITING``, so the last one
        decides).  The root is its own part.
        """
        row = self._row(tables, ctx.ch)
        target = ctx.target
        live = self.intern(tuple(
            p for p in self.sets[states] if not target.isdisjoint(row[p])
        ))
        waiting = self._waiting
        if live == self.root:
            part = live
        else:
            letters = self._letters
            part = self.intern(tuple(
                q for q in self.sets[live] if letters[q] == waiting
            ))
        fires = False
        if part != self.empty:
            kids = ctx.children.get(part)
            if kids is None:
                kids = self.children(tables, ctx, part)
            fires = kids[-1][0] != waiting
        return self._insert(ctx.live, states, (live, part, fires))

    def children(
        self, tables: AutomatonTables, ctx: StepContext, states: int
    ) -> tuple[tuple[tuple[int, ...], int], ...]:
        """``ctx.children[states]``: successors in the target by letter.

        A letter is a configuration's ``states`` tuple (every ``A_G``
        edge into ``q`` carries ``~c_q``), so grouping the successors by
        it and sorting gives the radix order ``<_K``.
        """
        row = self._row(tables, ctx.ch)
        target = ctx.target
        letters = self._letters
        groups: dict[tuple[int, ...], set[int]] = {}
        for p in self.sets[states]:
            for q in row[p]:
                if q in target:
                    group = groups.get(letters[q])
                    if group is None:
                        groups[letters[q]] = {q}
                    else:
                        group.add(q)
        return self._insert(ctx.children, states, tuple(
            (letter, self.intern(tuple(sorted(group))))
            for letter, group in sorted(groups.items())
        ))

    def backward(
        self, tables: AutomatonTables, ctx: StepContext
    ) -> tuple[int, frozenset[int], tuple]:
        """``ctx.backward``: one step of the equality product's backward pass.

        The fused equality runtime (:mod:`repro.runtime.equality`) asks,
        per gap of a document, which static states can still finish on
        the rest of it.  With the target ``T`` the states that read the
        next character on such a path, that depends only on ``T`` and
        the character, so the pass is a lazy DFA over these contexts:

        * ``reach``: the states whose variable-epsilon closure meets
          ``T`` — those that can still finish from the gap after the
          character;
        * ``row``: per state, in edge order, the targets of its terminal
          edges that read the character into ``reach``;
        * ``before``: the id of the states with a nonempty ``row`` (the
          target one gap earlier).

        Returns ``(before, reach, row)``.  The root context reads no
        character: its ``row`` is empty and ``before`` the empty set.
        """
        target = ctx.target
        reach = frozenset(
            q for q, closure in enumerate(tables.ve)
            if not target.isdisjoint(closure)
        )
        if ctx.ch == ROOT_STEP:
            row: tuple = ()
            before = self.empty
        else:
            ch = ctx.ch
            row = tuple(
                tuple(
                    dst for pred, dst in edges
                    if dst in reach and pred.matches(ch)
                )
                for edges in tables.terminal_edges
            )
            before = self.intern(tuple(q for q, out in enumerate(row) if out))
        with self._lock:
            found = ctx.backward
            if found is None:
                ctx.backward = found = (before, reach, row)
                self.size += 1
        return found


_CACHE: WeakCache = WeakCache(name="automaton-tables")


def tables_for(automaton: VSetAutomaton) -> AutomatonTables:
    """The shared, compacted tables for ``automaton`` (weakly memoized).

    Repeated callers — :class:`CompiledSpanner` instances, repeated
    joins of the same operand — get the same object, so closures and
    configuration sweeps run once per automaton for the lifetime of the
    automaton object.  Hit/miss counters surface through
    :func:`repro.runtime.cache.cache_metrics` under
    ``"automaton-tables"``.
    """
    return _CACHE.get_or_create(
        automaton, lambda: AutomatonTables(automaton, compact=True)
    )


def _intern(
    states: frozenset[int], pool: dict[tuple[int, ...], tuple[int, ...]]
) -> tuple[int, ...]:
    key = tuple(sorted(states))
    return pool.setdefault(key, key)
