"""Leveled NFAs and radix-order word enumeration (Section 4.2, Algs 1–3).

The paper's enumeration algorithm builds, from a functional
vset-automaton ``A`` and a string ``s``, a *leveled* NFA ``A_G`` whose
words all have length ``|s| + 1``; it then enumerates ``L(A_G)`` in
radix order without repetitions using a state stack — a tailored
version of the Ackerman–Shallit cross-section enumeration [2].

This module implements that machinery generically:

* :class:`LeveledNFA` — a DAG automaton with one virtual root and ``L``
  letter slots; every accepted word has exactly ``L`` letters.
* :class:`RadixEnumerator` — Algorithms 1 (enumerate), 2 (minString)
  and 3 (nextString) of the paper, with the per-answer delay bounded by
  ``O(L * n^2)`` for ``n`` states per level.

The generic cross-section (:mod:`repro.automata.crosssection`) and
:meth:`~repro.enumeration.SpannerEvaluator.configuration_words` hand a
:class:`LeveledNFA` to :class:`RadixEnumerator`.  Tuple enumeration
instead runs :func:`repro.enumeration.enumerator.walk_tuples`, which
yields the same radix order with an amortized delay that does not grow
with ``L`` (worst-case delay still ``O(L * n^2)``);
:class:`RadixEnumerator` is the reference it is tested against.  Only
the references build a :class:`LeveledNFA` per document: every regex
evaluator, cold or compiled, walks memoized state sets
(:mod:`repro.enumeration.statesets`), where a backward live pass plays
the role of :meth:`LeveledNFA.prune` and a per-level DP over memoized
children the role of :meth:`LeveledNFA.count_words`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Hashable, Iterator

__all__ = ["LeveledNFA", "RadixEnumerator"]

Label = Hashable


class LeveledNFA:
    """A DAG automaton whose accepted words all have the same length.

    Nodes are dense integers.  Node 0 is the virtual root ("level 0");
    a node at level ``i`` is reached after consuming ``i`` letters.
    Accepting nodes live at level ``L``.  Edges may only go from level
    ``i`` to level ``i + 1``.

    Use :meth:`add_node` / :meth:`add_edge` to build, then
    :meth:`prune` once before enumeration: pruning keeps exactly the
    nodes that lie on a root-to-accepting path, the precondition the
    radix algorithms rely on (every edge can be completed to a word).
    """

    __slots__ = ("n_slots", "level_of", "out_edges", "accepting", "_pruned")

    ROOT = 0

    def __init__(self, n_slots: int):
        if n_slots < 0:
            raise ValueError("number of letter slots must be >= 0")
        self.n_slots = n_slots
        self.level_of: list[int] = [0]
        self.out_edges: list[list[tuple[Label, int]]] = [[]]
        self.accepting: set[int] = set()
        self._pruned = False

    # -- Construction -----------------------------------------------------
    def add_node(self, level: int) -> int:
        if not 1 <= level <= self.n_slots:
            raise ValueError(f"level {level} out of range 1..{self.n_slots}")
        self.level_of.append(level)
        self.out_edges.append([])
        return len(self.level_of) - 1

    def add_edge(self, src: int, label: Label, dst: int) -> None:
        if self.level_of[dst] != self.level_of[src] + 1:
            raise ValueError(
                f"edge must advance one level: {self.level_of[src]} -> "
                f"{self.level_of[dst]}"
            )
        self.out_edges[src].append((label, dst))

    def mark_accepting(self, node: int) -> None:
        expected = self.n_slots
        if self.level_of[node] != expected:
            raise ValueError(
                f"accepting nodes must be at level {expected}, "
                f"got level {self.level_of[node]}"
            )
        self.accepting.add(node)

    # -- Inspection -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.level_of)

    @property
    def n_edges(self) -> int:
        return sum(len(edges) for edges in self.out_edges)

    @property
    def is_empty(self) -> bool:
        """True when no word is accepted (valid only after prune())."""
        if not self._pruned:
            raise RuntimeError("call prune() before is_empty")
        if self.n_slots == 0:
            return LeveledNFA.ROOT not in self.accepting
        return not self.out_edges[LeveledNFA.ROOT]

    # -- Pruning -----------------------------------------------------------
    def prune(self) -> None:
        """Remove nodes/edges not on a root-to-accepting path (in place).

        One backward pass: a node is useful when an edge reaches a
        useful node.  Nodes are visited by descending level, not by id,
        so any build order works; the sort is linear on the level-by-
        level order builders use, and it costs the nodes that exist, so
        a sweep that died early prunes in O(matched prefix), not
        O(|s|).  An edge list is rewritten only when it loses edges.
        """
        level_of = self.level_of
        out_edges = self.out_edges
        useful = bytearray(len(level_of))
        for node in self.accepting:
            useful[node] = 1
        for node in sorted(
            range(len(level_of)), key=level_of.__getitem__, reverse=True
        ):
            edges = out_edges[node]
            if not edges:
                continue
            kept = [edge for edge in edges if useful[edge[1]]]
            if kept:
                useful[node] = 1
            if len(kept) != len(edges):
                out_edges[node] = kept
        self._pruned = True

    def live_nodes(self) -> set[int]:
        """Nodes on a root-to-accepting path (call after prune()).

        ``prune`` drops edges of dead nodes but keeps their records (so
        node ids stay stable); introspection and rendering should use
        this set rather than ``range(n_nodes)``.
        """
        if not self._pruned:
            self.prune()
        live = {LeveledNFA.ROOT} if (
            self.n_slots == 0 and LeveledNFA.ROOT in self.accepting
        ) or self.out_edges[LeveledNFA.ROOT] else set()
        frontier = [LeveledNFA.ROOT] if live else []
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for _label, dst in self.out_edges[node]:
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        return seen

    def count_words(self, cap: int | None = None) -> int:
        """Exact number of *distinct* accepted words.

        Distinct words, not paths: the DAG is determinized on the fly by
        a powerset sweep per level.  ``cap`` aborts early (returning
        ``cap``) to keep tests bounded on adversarial instances.
        """
        if not self._pruned:
            self.prune()
        if self.n_slots == 0:
            return 1 if LeveledNFA.ROOT in self.accepting else 0
        if self.is_empty:
            return 0
        frontier: dict[frozenset[int], int] = {frozenset((LeveledNFA.ROOT,)): 1}
        for _level in range(self.n_slots):
            nxt: dict[frozenset[int], int] = {}
            for states, count in frontier.items():
                by_label: dict[Label, set[int]] = {}
                for q in states:
                    for label, dst in self.out_edges[q]:
                        by_label.setdefault(label, set()).add(dst)
                for dests in by_label.values():
                    key = frozenset(dests)
                    nxt[key] = nxt.get(key, 0) + count
            frontier = nxt
            if cap is not None and sum(frontier.values()) >= cap:
                return cap
        return sum(frontier.values())


class RadixEnumerator:
    """Enumerate the words of a pruned :class:`LeveledNFA` in radix order.

    This is the paper's Algorithms 1–3.  ``label_key`` defines the total
    order ``<_K`` on the letter alphabet; words come out in the induced
    radix order, each exactly once.

    The per-word delay is ``O(L * W)`` where ``W`` bounds the work per
    level: finding the minimal next letter over the current state set
    and building the successor state set — ``O(n^2)`` for ``n`` states
    per level, matching Theorem 3.3's ``O(n^2 |s|)`` delay.  nextString
    scans leftwards from the last slot and minString rebuilds the word
    out to it, so the delay grows with ``L`` even when amortized.
    """

    def __init__(self, leveled: LeveledNFA, label_key: Callable[[Label], object]):
        if not leveled._pruned:
            leveled.prune()
        self.leveled = leveled
        self.label_key = label_key
        # Per node: sorted distinct labels, their precomputed sort keys,
        # and label -> destinations — materialized *lazily*, because the
        # enumeration only ever inspects nodes that appear in some
        # reached state set (often a fraction of the graph when the
        # answer count is small).  ``label_key`` runs only inside
        # :meth:`_prepare`; the hot loops work on cached keys, and the
        # current word carries its keys alongside its letters, so
        # nextString never re-keys a letter it already placed.
        n = leveled.n_nodes
        self._labels: list[list[Label] | None] = [None] * n
        self._keys: list[list[object] | None] = [None] * n
        self._dests: list[dict[Label, tuple[int, ...]] | None] = [None] * n
        self._min_label: list[Label | None] = [None] * n
        self._min_key: list[object | None] = [None] * n
        self._ready = bytearray(n)

    def _prepare(self, node: int) -> None:
        """Build the sorted-label tables for one node on first touch."""
        self._ready[node] = 1
        edges = self.leveled.out_edges[node]
        if len(edges) == 1:
            # Fast path: most evaluation-graph nodes have a single
            # outgoing edge — no dict or sort needed.
            label, dst = edges[0]
            key = self.label_key(label)
            self._labels[node] = [label]
            self._keys[node] = [key]
            self._dests[node] = {label: (dst,)}
            self._min_label[node] = label
            self._min_key[node] = key
            return
        by_label: dict[Label, list[int]] = {}
        for label, dst in edges:
            by_label.setdefault(label, []).append(dst)
        ordered = sorted(by_label, key=self.label_key)
        keys = [self.label_key(lab) for lab in ordered]
        self._labels[node] = ordered
        self._keys[node] = keys
        self._dests[node] = {lab: tuple(ds) for lab, ds in by_label.items()}
        self._min_label[node] = ordered[0] if ordered else None
        self._min_key[node] = keys[0] if keys else None

    # -- Algorithms 2 and 3 ----------------------------------------------------
    def _step(self, states: tuple[int, ...], label: Label) -> tuple[int, ...]:
        out: set[int] = set()
        ready = self._ready
        dests = self._dests
        for q in states:
            if not ready[q]:
                self._prepare(q)
            out.update(dests[q].get(label, ()))
        return tuple(sorted(out))

    def _min_string(
        self,
        start_level: int,
        stack: list[tuple[int, ...]],
        word: list[Label],
        word_keys: list[object],
    ) -> None:
        """Extend ``word`` minimally from ``start_level`` to the last slot.

        ``stack[i]`` is the state set before choosing the letter at slot
        ``i``; the method pushes the sets for the remaining slots.
        ``word_keys`` mirrors ``word`` with each letter's sort key, so
        later nextString scans compare keys without re-keying.
        """
        min_label = self._min_label
        min_key = self._min_key
        ready = self._ready
        for i in range(start_level, self.leveled.n_slots):
            states = stack[i]
            best: Label | None = None
            best_key: object = None
            for q in states:
                if not ready[q]:
                    self._prepare(q)
                key = min_key[q]
                if key is None:
                    continue
                if best is None or key < best_key:
                    best, best_key = min_label[q], key
            if best is None:
                raise AssertionError(
                    "pruned leveled NFA must complete every prefix"
                )
            word.append(best)
            word_keys.append(best_key)
            if i + 1 <= self.leveled.n_slots - 1:
                stack.append(self._step(states, best))

    def __iter__(self) -> Iterator[tuple[Label, ...]]:
        leveled = self.leveled
        if leveled.n_slots == 0:
            if LeveledNFA.ROOT in leveled.accepting:
                yield ()
            return
        if leveled.is_empty:
            return
        stack: list[tuple[int, ...]] = [(LeveledNFA.ROOT,)]
        word: list[Label] = []
        word_keys: list[object] = []
        self._min_string(0, stack, word, word_keys)
        yield tuple(word)
        all_labels = self._labels
        all_keys = self._keys
        ready = self._ready
        while True:
            # nextString: find the rightmost slot whose letter can grow.
            i = leveled.n_slots - 1
            while i >= 0:
                states = stack[i]
                current_key = word_keys[i]
                best: Label | None = None
                best_key: object = None
                for q in states:
                    if not ready[q]:
                        self._prepare(q)
                    keys = all_keys[q]
                    idx = bisect_right(keys, current_key)
                    if idx == len(keys):
                        continue
                    key = keys[idx]
                    if best is None or key < best_key:
                        best, best_key = all_labels[q][idx], key
                if best is not None:
                    del word[i:]
                    del word_keys[i:]
                    del stack[i + 1 :]
                    word.append(best)
                    word_keys.append(best_key)
                    if i + 1 <= leveled.n_slots - 1:
                        stack.append(self._step(states, best))
                    self._min_string(i + 1, stack, word, word_keys)
                    yield tuple(word)
                    break
                i -= 1
            else:
                return
