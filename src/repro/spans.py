"""Spans, (V, s)-tuples and (V, s)-relations (Section 2.1 of the paper).

A *span* of a string ``s`` is an expression ``[i, j>`` with
``1 <= i <= j <= len(s) + 1``; it denotes the substring ``s[i-1 : j-1]``
in Python's 0-based slicing.  Two spans are equal iff both endpoints
agree — equality of the *substrings* they select does not imply equality
of the spans (Example 2.1).

A ``(V, s)``-tuple maps every variable in a finite set ``V`` to a span of
``s``; a ``(V, s)``-relation is a set of such tuples.  A *spanner* maps
every string to a ``(V, s)``-relation; spanners in this library are
represented by regex formulas (:mod:`repro.regex`) and vset-automata
(:mod:`repro.vset`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InvalidSpanError, SchemaError

__all__ = ["Span", "SpanTuple", "SpanRelation"]


@dataclass(frozen=True, slots=True, order=True)
class Span:
    """A span ``[start, end>`` with 1-based, end-exclusive indices.

    The paper's notation ``[i, j>`` maps directly to ``Span(i, j)``.
    ``Span`` is ordered lexicographically by ``(start, end)``, which is
    handy for deterministic output.

    Attributes:
        start: 1-based index of the first selected character.
        end: 1-based index *one past* the last selected character.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise _invalid_span(self.start, self.end)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of characters selected by the span."""
        return self.end - self.start

    def is_empty(self) -> bool:
        """True for spans of the form ``[i, i>`` (empty substring)."""
        return self.start == self.end

    def contains(self, other: "Span") -> bool:
        """True when ``other`` lies within this span (subspan relation).

        This is the relation extracted by the paper's ``alpha_sub[y, x]``
        regex formula: ``x.contains(y)`` iff y's boundaries are within x.
        """
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        """True when the two spans share at least one character.

        Empty spans select no characters, so they overlap nothing.
        """
        return max(self.start, other.start) < min(self.end, other.end)

    def precedes(self, other: "Span") -> bool:
        """True when this span ends before or where ``other`` starts."""
        return self.end <= other.start

    # ------------------------------------------------------------------
    # String access
    # ------------------------------------------------------------------
    def extract(self, s: str) -> str:
        """Return the substring of ``s`` selected by this span.

        Raises:
            InvalidSpanError: if the span does not fit ``s``.
        """
        if self.end > len(s) + 1:
            raise InvalidSpanError(
                f"span [{self.start}, {self.end}> does not fit a string "
                f"of length {len(s)}"
            )
        return s[self.start - 1 : self.end - 1]

    def fits(self, s: str) -> bool:
        """True when this span is a span *of* ``s``."""
        return self.end <= len(s) + 1

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_slice(cls, start: int, stop: int) -> "Span":
        """Build a span from Python 0-based slice indices."""
        return cls(start + 1, stop + 1)

    def to_slice(self) -> tuple[int, int]:
        """Return 0-based ``(start, stop)`` slice indices."""
        return self.start - 1, self.end - 1

    @classmethod
    def whole(cls, s: str) -> "Span":
        """The span ``[1, len(s)+1>`` selecting all of ``s``."""
        return cls(1, len(s) + 1)

    @classmethod
    def all_spans(cls, s: str) -> Iterator["Span"]:
        """Yield every span of ``s`` in lexicographic order.

        A string of length N has ``(N+1)(N+2)/2`` spans; this quadratic
        bound is what makes single-variable spanner relations (and key
        attributes, Proposition 3.6) polynomially bounded.
        """
        n = len(s)
        for i in range(1, n + 2):
            for j in range(i, n + 2):
                yield cls(i, j)

    def __str__(self) -> str:
        return f"[{self.start}, {self.end}>"


def _invalid_span(start: int, end: int) -> InvalidSpanError:
    return InvalidSpanError(
        f"invalid span [{start}, {end}>: need 1 <= start <= end"
    )


# Private constructors for the code that builds a span per variable
# per tuple: the enumerator's decoders and the fleet's result unpacking.
# ``span = _new(Span); _set_start(span, start); _set_end(span, end)`` is
# ``Span(start, end)`` without the dataclass ``__init__``; the caller
# runs the same ``1 <= start <= end`` check first and raises
# ``_invalid_span(start, end)``, so a bad span fails as the public
# constructor fails.  ``mu = _new(SpanTuple); _set_items(mu, items)`` is
# ``SpanTuple(items)`` without the ``dict``, the ``isinstance`` checks
# and the sort: the caller guarantees distinct names in ascending order,
# each paired with a :class:`Span`.
_new = object.__new__
_set_start = Span.start.__set__  # type: ignore[attr-defined]
_set_end = Span.end.__set__  # type: ignore[attr-defined]


class SpanTuple(Mapping[str, Span]):
    """An immutable ``(V, s)``-tuple: a mapping from variables to spans.

    Instances are hashable and compare by their variable/span content, so
    they can live in sets — a :class:`SpanRelation` is exactly such a set.
    """

    __slots__ = ("_items",)

    def __init__(self, assignment: Mapping[str, Span] | Iterable[tuple[str, Span]]):
        items = dict(assignment)
        for var, span in items.items():
            if not isinstance(span, Span):
                raise TypeError(f"value for {var!r} is not a Span: {span!r}")
        self._items: tuple[tuple[str, Span], ...] = tuple(sorted(items.items()))

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, var: str) -> Span:
        for name, span in self._items:
            if name == var:
                return span
        raise KeyError(var)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    # -- Value semantics ---------------------------------------------------
    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanTuple):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __lt__(self, other: "SpanTuple") -> bool:
        """Lexicographic order over the sorted (variable, span) pairs."""
        return self._items < other._items

    # -- Spanner-algebra helpers -------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return frozenset(name for name, _ in self._items)

    def restrict(self, variables: Iterable[str]) -> "SpanTuple":
        """Project the tuple onto ``variables`` (paper: ``mu|_Y``)."""
        keep = set(variables)
        missing = keep - self.variables
        if missing:
            raise SchemaError(f"cannot restrict to unknown variables {sorted(missing)}")
        return SpanTuple((n, s) for n, s in self._items if n in keep)

    def compatible(self, other: "SpanTuple") -> bool:
        """True when the tuples agree on every shared variable."""
        shared = self.variables & other.variables
        return all(self[v] == other[v] for v in shared)

    def merge(self, other: "SpanTuple") -> "SpanTuple":
        """Combine two compatible tuples (the heart of natural join).

        Raises:
            SchemaError: if the tuples disagree on a shared variable.
        """
        if not self.compatible(other):
            raise SchemaError("cannot merge incompatible tuples")
        combined = dict(self._items)
        combined.update(other._items)
        return SpanTuple(combined)

    def strings(self, s: str) -> dict[str, str]:
        """Map every variable to the substring its span selects in ``s``."""
        return {name: span.extract(s) for name, span in self._items}

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={s}" for n, s in self._items)
        return f"{{{inner}}}"


_set_items = SpanTuple._items.__set__  # type: ignore[attr-defined]


def _tuple_of_positions(names: tuple[str, ...], positions) -> SpanTuple:
    """The :class:`SpanTuple` whose spans are ``positions``, ``start, end``
    per name of ``names`` (distinct, ascending), built with the private
    constructors above, each span checked."""
    pairs = []
    for name, start, end in zip(names, positions[::2], positions[1::2]):
        if start < 1 or end < start:
            raise _invalid_span(start, end)
        span = _new(Span)
        _set_start(span, start)
        _set_end(span, end)
        pairs.append((name, span))
    mu = _new(SpanTuple)
    _set_items(mu, tuple(pairs))
    return mu


#: The empty tuple over no variables.  A Boolean spanner returns either
#: the empty relation (false) or the relation containing only this tuple
#: (true) — see Section 2.1.
EMPTY_TUPLE = SpanTuple({})


class SpanRelation:
    """An immutable ``(V, s)``-relation: a set of (V, s)-tuples.

    All tuples must be over exactly the relation's variable set.  The
    class offers the spanner algebra of Section 2.2.4 in materialized
    form; the streaming/enumeration counterparts live in
    :mod:`repro.enumeration` and :mod:`repro.queries`.
    """

    __slots__ = ("_variables", "_tuples")

    def __init__(self, variables: Iterable[str], tuples: Iterable[SpanTuple] = ()):
        self._variables = frozenset(variables)
        tuple_set = frozenset(tuples)
        for t in tuple_set:
            if t.variables != self._variables:
                raise SchemaError(
                    f"tuple over {sorted(t.variables)} does not match "
                    f"relation schema {sorted(self._variables)}"
                )
        self._tuples = tuple_set

    # -- Container protocol --------------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return self._variables

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[SpanTuple]:
        return iter(self._tuples)

    def __contains__(self, item: object) -> bool:
        return item in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanRelation):
            return NotImplemented
        return self._variables == other._variables and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._variables, self._tuples))

    def sorted(self) -> list[SpanTuple]:
        """Tuples in deterministic (lexicographic) order."""
        return sorted(self._tuples)

    # -- Boolean semantics -----------------------------------------------------
    @property
    def is_boolean(self) -> bool:
        """True when the relation is over the empty variable set."""
        return not self._variables

    def __bool__(self) -> bool:
        """Non-emptiness; for Boolean relations this is the truth value."""
        return bool(self._tuples)

    # -- Algebra (Section 2.2.4) -----------------------------------------------
    def project(self, variables: Iterable[str]) -> "SpanRelation":
        """Projection ``pi_Y``: restrict every tuple to ``variables``."""
        target = frozenset(variables)
        if not target <= self._variables:
            raise SchemaError(
                f"projection variables {sorted(target - self._variables)} "
                "not in relation schema"
            )
        return SpanRelation(target, (t.restrict(target) for t in self._tuples))

    def union(self, other: "SpanRelation") -> "SpanRelation":
        """Union; both relations must share the same variable set."""
        if self._variables != other._variables:
            raise SchemaError(
                "union requires identical variable sets: "
                f"{sorted(self._variables)} vs {sorted(other._variables)}"
            )
        return SpanRelation(self._variables, self._tuples | other._tuples)

    def natural_join(self, other: "SpanRelation") -> "SpanRelation":
        """Natural join, implemented as a hash join on shared variables.

        This materialized join is the reference implementation used by
        tests; the query evaluators use :mod:`repro.relational` (for the
        canonical strategy) or automaton products (Lemma 3.10).
        """
        shared = tuple(sorted(self._variables & other._variables))
        buckets: dict[tuple[Span, ...], list[SpanTuple]] = {}
        for t in other._tuples:
            buckets.setdefault(tuple(t[v] for v in shared), []).append(t)
        out = []
        for t in self._tuples:
            key = tuple(t[v] for v in shared)
            for u in buckets.get(key, ()):
                out.append(t.merge(u))
        return SpanRelation(self._variables | other._variables, out)

    def select_string_equality(self, s: str, variables: Iterable[str]) -> "SpanRelation":
        """String-equality selection ``zeta^=_{x1,...,xk}``.

        Keeps the tuples whose spans for all of ``variables`` select the
        *same substring* of ``s`` (the spans themselves may differ).
        """
        group = tuple(variables)
        unknown = set(group) - self._variables
        if unknown:
            raise SchemaError(f"selection over unknown variables {sorted(unknown)}")
        if len(group) < 2:
            return self
        kept = []
        for t in self._tuples:
            first = t[group[0]].extract(s)
            if all(t[v].extract(s) == first for v in group[1:]):
                kept.append(t)
        return SpanRelation(self._variables, kept)

    def difference(self, other: "SpanRelation") -> "SpanRelation":
        """Set difference (regular spanners are closed under it)."""
        if self._variables != other._variables:
            raise SchemaError("difference requires identical variable sets")
        return SpanRelation(self._variables, self._tuples - other._tuples)

    def __repr__(self) -> str:
        rows = ", ".join(repr(t) for t in self.sorted()[:8])
        more = "" if len(self) <= 8 else f", ... ({len(self)} total)"
        return f"SpanRelation({sorted(self._variables)}: {rows}{more})"
