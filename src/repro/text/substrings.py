"""Substring index: exact equal-substring classes in O(N) per length.

The fused equality runtime (Theorem 5.4 / Corollary 5.3, evaluated
without materializing ``A_eq``) repeatedly asks one combinatorial
question about the input string: *which start positions carry equal
substrings of a given length?*

:class:`SubstringIndex` serves

* *class representatives* — the first occurrence of a substring value,
  a canonical id the fused equality runtime uses to merge product
  states across choices that share a substring.  The classes of a
  length are derived exactly from those of two shorter lengths, built
  lazily per length in ``O(N)`` and cached (:meth:`SubstringIndex.classes`);
* *occurrence* queries — "is there an occurrence of this substring
  value starting at or after position ``p``?" via binary search.

Positions are 1-based throughout, matching :class:`~repro.spans.Span`:
the substring of length ``L`` at start ``p`` is ``s[p-1 : p-1+L]`` and
valid starts range over ``1 .. N-L+1``.  Every answer is exact.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["SubstringIndex"]


class SubstringIndex:
    """Equal-substring queries over one string.

    Construction builds nothing; every length's class arrays are built
    lazily on first use and cached, so a caller that only ever asks
    about a few lengths (the fused equality runtime) pays ``O(N)`` per
    distinct length, plus the ``O(log L)`` shorter lengths each one is
    derived from.
    """

    __slots__ = ("string", "n", "_classes")

    def __init__(self, s: str):
        self.string = s
        self.n = len(s)
        # length -> (reps, starts): ``reps[p]`` is the class id (first
        # occurrence) of the substring at start ``p``, and
        # ``starts[rep]`` that class's ascending start list.
        self._classes: dict[int, tuple[list[int], list[list[int] | None]]] = {}

    def equal(self, p: int, q: int, length: int) -> bool:
        """True iff the length-``length`` substrings at ``p``/``q`` agree."""
        if p == q:
            return True
        reps = self.classes(length)[0]
        return reps[p] == reps[q]

    def classes(
        self, length: int
    ) -> tuple[list[int], list[list[int] | None]]:
        """The class-id arrays of one length (lazily cached).

        Returns ``(reps, starts)``: ``reps[p]`` is :meth:`class_rep` of
        start ``p`` (index 0 is unused), and ``starts[rep]`` is the
        ascending start list of the class whose first occurrence is
        ``rep`` (``None`` at non-representatives).  Every query below is
        an index into these.

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
