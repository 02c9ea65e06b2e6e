"""Regex unions of conjunctive queries (§2.3).

A regex UCQ is ``q_1 ∪ ... ∪ q_l`` where all disjuncts share the same
head variables.  A regex *k*-UCQ additionally bounds every disjunct to
at most ``k`` regex atoms — the class for which Theorem 3.11 guarantees
polynomial-delay evaluation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import QueryError
from .cq import RegexCQ

__all__ = ["RegexUCQ"]


class RegexUCQ:
    """A union of regex CQs with identical head variable sets."""

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: Sequence[RegexCQ]):
        if not disjuncts:
            raise QueryError("a regex UCQ needs at least one disjunct")
        head_set = disjuncts[0].head_set
        for cq in disjuncts[1:]:
            if cq.head_set != head_set:
                raise QueryError(
                    "all UCQ disjuncts must share head variables: "
                    f"{sorted(head_set)} vs {sorted(cq.head_set)}"
                )
        self.disjuncts: tuple[RegexCQ, ...] = tuple(disjuncts)

    # -- Shape ------------------------------------------------------------
    @property
    def head(self) -> tuple[str, ...]:
        return self.disjuncts[0].head

    @property
    def head_set(self) -> frozenset[str]:
        return self.disjuncts[0].head_set

    @property
    def is_boolean(self) -> bool:
        return not self.head

    @property
    def max_atom_count(self) -> int:
        """The smallest ``k`` for which this is a regex k-UCQ."""
        return max(cq.atom_count for cq in self.disjuncts)

    @property
    def max_equality_count(self) -> int:
        """The smallest ``m`` such that every disjunct has <= m groups."""
        return max(cq.equality_count for cq in self.disjuncts)

    @property
    def has_equalities(self) -> bool:
        return any(cq.equality_atoms for cq in self.disjuncts)

    def __iter__(self) -> Iterator[RegexCQ]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def is_acyclic(self) -> bool:
        """True when every disjunct maps to an acyclic relational CQ."""
        return all(cq.is_acyclic() for cq in self.disjuncts)

    def __str__(self) -> str:
        return " ∪ ".join(str(cq) for cq in self.disjuncts)

    def __repr__(self) -> str:
        return f"RegexUCQ({len(self.disjuncts)} disjuncts, head={self.head})"
