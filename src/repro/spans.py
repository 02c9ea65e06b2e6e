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
        return _extract(s, self.start, self.end)

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


# The private constructor of a span whose bounds are already checked:
# ``_span(start, end)`` is ``Span(start, end)`` without the dataclass
# ``__init__`` and its check.  A :class:`SpanTuple` keeps positions, not
# spans, and builds its spans with it when they are read.  The code that
# builds a tuple per output tuple (the enumerator's decoders, the fleet's
# result unpacking) builds it as ``mu = _new(SpanTuple)`` and sets
# ``mu._names`` and ``mu._positions`` directly, after the ``1 <= start
# <= end`` check of every span (raising ``_invalid_span(start, end)``):
# the names distinct and ascending, the positions a tuple of ints.
_new = object.__new__
_set_start = Span.start.__set__  # type: ignore[attr-defined]
_set_end = Span.end.__set__  # type: ignore[attr-defined]


def _span(start: int, end: int) -> Span:
    span = _new(Span)
    _set_start(span, start)
    _set_end(span, end)
    return span


class SpanTuple(Mapping[str, Span]):
    """An immutable ``(V, s)``-tuple: a mapping from variables to spans.

    Instances are hashable and compare by their variable/span content, so
    they can live in sets — a :class:`SpanRelation` is exactly such a set.

    A tuple holds its variable names in ascending order and one flat
    tuple of span positions, ``start, end`` per name; the enumerator's
    decoders and the fleet's result unpacking share one names tuple
    over every tuple of a walk or a chunk.  A :class:`Span` is built
    when it is read (``mu[v]``, :meth:`items`, :meth:`values`), so a
    span read twice is equal to, but not the same object as, the first.
    Equality, hashing, order and the spanner-algebra helpers below read
    the positions and build no span.  Pickles keep the format of the
    earlier span-holding tuples, ``(name, Span)`` pairs, so their bytes
    do not depend on which tuples share a names tuple.
    """

    __slots__ = ("_names", "_positions")

    def __init__(self, assignment: Mapping[str, Span] | Iterable[tuple[str, Span]]):
        items = dict(assignment)
        for var, span in items.items():
            if not isinstance(span, Span):
                raise TypeError(f"value for {var!r} is not a Span: {span!r}")
        names = tuple(sorted(items))
        self._names: tuple[str, ...] = names
        self._positions: tuple[int, ...] = tuple(
            x for name in names for x in (items[name].start, items[name].end)
        )

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, var: str) -> Span:
        try:
            i = 2 * self._names.index(var)
        except ValueError:
            raise KeyError(var) from None
        positions = self._positions
        return _span(positions[i], positions[i + 1])

    def __contains__(self, var: object) -> bool:
        return var in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # -- Value semantics ---------------------------------------------------
    def __hash__(self) -> int:
        return hash((self._names, self._positions))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanTuple):
            return (
                self._positions == other._positions
                and self._names == other._names
            )
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __lt__(self, other: "SpanTuple") -> bool:
        """Lexicographic order over the sorted (variable, span) pairs."""
        if not isinstance(other, SpanTuple):
            return NotImplemented
        if self._names == other._names:
            return self._positions < other._positions
        return self._flat() < other._flat()

    def _flat(self) -> tuple:
        """``name, start, end`` per variable: ordered as the
        ``(name, span)`` pairs are."""
        positions = self._positions
        return tuple(
            x
            for i, name in enumerate(self._names)
            for x in (name, positions[2 * i], positions[2 * i + 1])
        )

    def __getstate__(self) -> tuple:
        pairs = zip(self._names, self._positions[::2], self._positions[1::2])
        return (
            None,
            {"_items": tuple((n, _span(a, b)) for n, a, b in pairs)},
        )

    def __setstate__(self, state: tuple) -> None:
        items = state[1]["_items"]
        self._names = tuple(name for name, _ in items)
        self._positions = tuple(
            x for _, span in items for x in (span.start, span.end)
        )

    # -- Spanner-algebra helpers -------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return frozenset(self._names)

    def _bounds(self) -> dict[str, tuple[int, int]]:
        """Each variable's ``(start, end)``."""
        positions = self._positions
        return dict(zip(self._names, zip(positions[::2], positions[1::2])))

    def restrict(self, variables: Iterable[str]) -> "SpanTuple":
        """Project the tuple onto ``variables`` (paper: ``mu|_Y``)."""
        keep = set(variables)
        missing = keep.difference(self._names)
        if missing:
            raise SchemaError(f"cannot restrict to unknown variables {sorted(missing)}")
        bounds = self._bounds()
        names = tuple(name for name in self._names if name in keep)
        return _tuple_of_positions(
            names, [x for name in names for x in bounds[name]]
        )

    def compatible(self, other: "SpanTuple") -> bool:
        """True when the tuples agree on every shared variable."""
        if self._names == other._names:
            return self._positions == other._positions
        bounds = other._bounds()
        positions = self._positions
        for i, name in enumerate(self._names):
            found = bounds.get(name)
            if found is not None and found != positions[2 * i : 2 * i + 2]:
                return False
        return True

    def merge(self, other: "SpanTuple") -> "SpanTuple":
        """Combine two compatible tuples (the heart of natural join).

        Raises:
            SchemaError: if the tuples disagree on a shared variable.
        """
        if not self.compatible(other):
            raise SchemaError("cannot merge incompatible tuples")
        bounds = self._bounds()
        bounds.update(other._bounds())
        names = tuple(sorted(bounds))
        return _tuple_of_positions(
            names, [x for name in names for x in bounds[name]]
        )

    def strings(self, s: str) -> dict[str, str]:
        """Map every variable to the substring its span selects in ``s``."""
        return {
            name: _extract(s, start, end)
            for name, (start, end) in self._bounds().items()
        }

    def __repr__(self) -> str:
        positions = self._positions
        inner = ", ".join(
            f"{name}=[{positions[2 * i]}, {positions[2 * i + 1]}>"
            for i, name in enumerate(self._names)
        )
        return f"{{{inner}}}"


def _extract(s: str, start: int, end: int) -> str:
    """:meth:`Span.extract` on bounds already checked as a span."""
    if end > len(s) + 1:
        raise InvalidSpanError(
            f"span [{start}, {end}> does not fit a string of length {len(s)}"
        )
    return s[start - 1 : end - 1]


def _tuple_of_positions(names: tuple[str, ...], positions) -> SpanTuple:
    """The :class:`SpanTuple` whose spans are ``positions``, ``start,
    end`` per name of ``names`` (distinct, ascending), each span
    checked as :class:`Span` checks it.

    ``names`` is kept as given, so callers building many tuples over
    one head pass one shared names tuple.
    """
    positions = tuple(positions)
    for start, end in zip(positions[::2], positions[1::2]):
        if start < 1 or end < start:
            raise _invalid_span(start, end)
    mu = _new(SpanTuple)
    mu._names = names
    mu._positions = positions
    return mu


def _position_indexes(
    variables: Iterable[str], chosen: Iterable[str]
) -> list[int]:
    """Where the ``start`` and ``end`` of each of ``chosen`` sit in the
    positions of a tuple over ``variables``."""
    names = sorted(variables)
    return [
        j for v in chosen for i in (2 * names.index(v),) for j in (i, i + 1)
    ]


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
        names = tuple(sorted(self._variables))
        tuple_set = frozenset(tuples)
        for t in tuple_set:
            if t._names != names:
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
        # A join key is the shared variables' span positions.
        mine = _position_indexes(self._variables, shared)
        theirs = _position_indexes(other._variables, shared)
        buckets: dict[tuple[int, ...], list[SpanTuple]] = {}
        for t in other._tuples:
            positions = t._positions
            buckets.setdefault(
                tuple([positions[j] for j in theirs]), []
            ).append(t)
        out = []
        for t in self._tuples:
            positions = t._positions
            key = tuple([positions[j] for j in mine])
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
        head, *others = _position_indexes(self._variables, group)[::2]
        kept = []
        for t in self._tuples:
            positions = t._positions
            first = _extract(s, positions[head], positions[head + 1])
            if all(
                _extract(s, positions[i], positions[i + 1]) == first
                for i in others
            ):
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
