"""Substring index: equal-substring classes in O(N) per length.

The equality constructions (Theorem 5.4 / Corollary 5.3) repeatedly ask
one combinatorial question about the input string: *which start
positions carry equal substrings of a given length?*  The original
``equal_span_choices`` answered it by materializing ``s[i:i+L]`` for
every start — ``O(N)`` string copies of length ``L`` per length, i.e.
``O(N^2)`` character work per length and ``O(N^3)`` over all lengths.

:class:`SubstringIndex` serves

* *class representatives* — the first occurrence of a substring value,
  a canonical id the fused equality runtime uses to merge product
  states across choices that share a substring.  The classes of a
  length are derived exactly from those of two shorter lengths, built
  lazily per length in ``O(N)`` and cached (:meth:`SubstringIndex.classes`);
* *occurrence* queries — "is there an occurrence of this substring
  value starting at or after position ``p``?" via binary search;
* per-length *buckets* — start positions grouped by substring value,
  keyed by a pair of polynomial prefix hashes (independent 61- and
  89-bit Mersenne-prime moduli, fixed bases, prefix arrays built in
  ``O(N)``);
* O(log N) *longest common extension* between two suffixes, by binary
  search over the hash pairs.

Positions are 1-based throughout, matching :class:`~repro.spans.Span`:
the substring of length ``L`` at start ``p`` is ``s[p-1 : p-1+L]`` and
valid starts range over ``1 .. N-L+1``.

The class arrays, and every query answered from them (:meth:`equal`,
:meth:`class_rep`, :meth:`occurrences`,
:meth:`first_occurrence_at_or_after`), are exact.  :meth:`buckets` and
:meth:`lce` decide equality by the *pair* of hashes: with ~2^150 of
combined hash space the collision probability over the ``O(N^2)``
substrings of realistic inputs is ~``N^4 / 2^150``, vanishing for any
``N`` this engine can process; the bases are fixed so runs are
reproducible.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["SubstringIndex"]

#: Two independent Mersenne-prime moduli and fixed odd bases.  The
#: hash *pair* is load-bearing for correctness (buckets() and lce() have
#: no verbatim-comparison fallback), hence the large second modulus.
#: Fixed — not salted per process — so bucket layouts are reproducible
#: and worker processes agree with the driver.
_MOD1 = (1 << 61) - 1
_MOD2 = (1 << 89) - 1
_BASE1 = 1_000_003
_BASE2 = 92_821


class SubstringIndex:
    """Equal-substring queries over one string.

    Construction builds nothing; every per-length artifact (and the
    prefix hashes, for the hash-keyed queries) is built lazily
    on first use and cached, so a caller that only ever asks about a few
    lengths (the fused equality runtime) pays ``O(N)`` per distinct
    length, while a caller sweeping all lengths (the materializing
    choice enumeration) pays ``O(N^2)`` total — never ``O(N^3)``.
    """

    __slots__ = ("string", "n", "_hashes", "_by_length", "_classes")

    def __init__(self, s: str):
        self.string = s
        self.n = len(s)
        # The prefix-hash arrays (h1, h2, p1, p2), built when a hash is
        # first asked for: the class arrays need none.
        self._hashes: tuple[list[int], ...] | None = None
        # length -> {hash pair -> sorted list of 1-based starts};
        # dict insertion order is first-occurrence order, which callers
        # iterating buckets rely on (it reproduces the historical
        # substring-keyed bucketing exactly).
        self._by_length: dict[int, dict[tuple[int, int], list[int]]] = {}
        # length -> (reps, starts): ``reps[p]`` is the class id (first
        # occurrence) of the substring at start ``p``, and
        # ``starts[rep]`` that class's ascending start list.
        self._classes: dict[int, tuple[list[int], list[list[int] | None]]] = {}

    # -- Hashing ------------------------------------------------------------
    def _prefix_hashes(self) -> tuple[list[int], ...]:
        hashes = self._hashes
        if hashes is None:
            n = self.n
            h1 = [0] * (n + 1)
            h2 = [0] * (n + 1)
            p1 = [1] * (n + 1)
            p2 = [1] * (n + 1)
            for i, ch in enumerate(self.string):
                code = ord(ch) + 1
                h1[i + 1] = (h1[i] * _BASE1 + code) % _MOD1
                h2[i + 1] = (h2[i] * _BASE2 + code) % _MOD2
                p1[i + 1] = (p1[i] * _BASE1) % _MOD1
                p2[i + 1] = (p2[i] * _BASE2) % _MOD2
            hashes = self._hashes = (h1, h2, p1, p2)
        return hashes

    def signature(self, start: int, length: int) -> tuple[int, int]:
        """The hash pair of the substring at 1-based ``start``."""
        h1, h2, p1, p2 = self._prefix_hashes()
        lo = start - 1
        hi = lo + length
        return (
            (h1[hi] - h1[lo] * p1[length]) % _MOD1,
            (h2[hi] - h2[lo] * p2[length]) % _MOD2,
        )

    def equal(self, p: int, q: int, length: int) -> bool:
        """True iff the length-``length`` substrings at ``p``/``q`` agree."""
        if p == q:
            return True
        reps = self.classes(length)[0]
        return reps[p] == reps[q]

    # -- Per-length bucketing -----------------------------------------------
    def buckets(self, length: int) -> dict[tuple[int, int], list[int]]:
        """Start positions grouped by substring value (lazily cached).

        Keys are hash pairs; values are ascending start lists.  Bucket
        iteration order is first-occurrence order — identical to the
        order a substring-keyed dict filled by an ascending start scan
        would produce.
        """
        table = self._by_length.get(length)
        if table is None:
            table = {}
            for start in range(1, self.n + 2 - length):
                table.setdefault(self.signature(start, length), []).append(
                    start
                )
            self._by_length[length] = table
        return table

    def classes(
        self, length: int
    ) -> tuple[list[int], list[list[int] | None]]:
        """The class-id arrays of one length (lazily, exactly, no hashing).

        Returns ``(reps, starts)``: ``reps[p]`` is :meth:`class_rep` of
        start ``p`` (index 0 is unused), and ``starts[rep]`` is the
        ascending start list of the class whose first occurrence is
        ``rep`` (``None`` at non-representatives).  Every query below is
        an index into these, with no hashing.

        Length 1 classes characters.  A longer length ``L`` splits as
        ``a + b`` with ``L / 2 <= a < L``, preferring an ``a`` already
        built (otherwise both halves are built first, the same way):
        the substring at ``p`` is the one of length ``a`` at ``p``
        followed by the one of length ``b`` at ``p + a``, so one
        ascending scan ranks the pair of their class ids, and the first
        start of each pair is its class's first occurrence.  A length
        costs ``O(N)`` plus the halves it builds, at most ``O(log L)``
        lengths.
        """
        found = self._classes.get(length)
        if found is None:
            found = self._classes.setdefault(length, self._derive(length))
        return found

    def _derive(
        self, length: int
    ) -> tuple[list[int], list[list[int] | None]]:
        n = self.n
        size = n + 2 - length
        reps = [0] * size
        starts: list[list[int] | None] = [None] * size
        if size <= 1:
            return reps, starts
        if length <= 1:
            # Every empty substring is equal; a character is its own key.
            keys = [0] * size if length == 0 else [0, *self.string]
        else:
            half = (length + 1) // 2
            offset = max(
                (k for k in self._classes if half <= k < length),
                default=half,
            )
            left = self.classes(offset)[0]
            right = self.classes(length - offset)[0]
            width = n + 2
            keys = [
                0,
                *(
                    a * width + b
                    for a, b in zip(left[1:size], right[1 + offset :])
                ),
            ]
        first: dict = {}
        for p in range(1, size):
            rep = first.get(keys[p])
            if rep is None:
                first[keys[p]] = reps[p] = p
                starts[p] = [p]
            else:
                reps[p] = rep
                starts[rep].append(p)  # type: ignore[union-attr]
        return reps, starts

    @property
    def class_tables(self) -> dict[int, tuple]:
        """Every length's :meth:`classes` arrays built so far, by length.

        The live cache itself, for callers that read many lengths in a
        hot loop: one dict read per length, with :meth:`classes` as the
        fallback for a length not built yet.  Read only; entries are
        published whole, so threads may share it.
        """
        return self._classes

    def class_rep(self, start: int, length: int) -> int:
        """The first occurrence of the substring value at ``start``.

        A canonical, order-stable id for the equivalence class "spans
        with this content": two starts share a representative iff their
        substrings are equal.
        """
        return self.classes(length)[0][start]

    def occurrences(self, rep: int, length: int) -> list[int]:
        """All starts (ascending) whose substring equals the one at ``rep``."""
        reps, starts = self.classes(length)
        return starts[reps[rep]]  # type: ignore[return-value]

    def first_occurrence_at_or_after(
        self, rep: int, length: int, min_start: int
    ) -> int | None:
        """Smallest occurrence start ``>= min_start``, or ``None``."""
        starts = self.occurrences(rep, length)
        if starts[-1] < min_start:
            return None
        return starts[bisect_left(starts, min_start)]

    # -- Longest common extension -------------------------------------------
    def lce(self, p: int, q: int) -> int:
        """Length of the longest common prefix of the suffixes at p and q.

        Binary search over hash-pair equality: ``O(log N)``.
        """
        if p == q:
            return self.n + 1 - p
        lo, hi = 0, min(self.n + 1 - p, self.n + 1 - q)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.signature(p, mid) == self.signature(q, mid):
                lo = mid
            else:
                hi = mid - 1
        return lo
