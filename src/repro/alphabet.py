"""Alphabets, variable markers and symbol predicates.

The paper works over a fixed finite alphabet Sigma and the *extended*
alphabet ``Sigma ∪ Gamma_V`` where ``Gamma_V`` holds two markers per
variable ``x``: an opening marker (the paper writes ``x⊢``) and a closing
marker (``⊣x``).  This module provides:

* :class:`VariableMarker` — the Gamma_V symbols;
* symbol predicates (:class:`Chars`, :class:`AnyChar`, :class:`NotChars`)
  used as terminal transition labels.

Predicate labels are the one deliberate engineering substitution in this
reproduction (see DESIGN.md): the theory treats ``Sigma*`` as a union of
|Sigma| parallel edges, while we keep a single edge whose label *matches*
a set of characters.  Semantics and complexity shapes are unchanged — a
predicate edge is a single edge, and matching is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "EPSILON",
    "VariableMarker",
    "open_marker",
    "close_marker",
    "gamma",
    "SymbolPredicate",
    "Chars",
    "AnyChar",
    "NotChars",
    "char_pred",
    "ANY",
    "intersect_predicates",
    "is_epsilon",
    "is_marker",
    "is_marker_set",
    "is_symbol",
    "marker_sort_key",
    "SortedPickle",
]


class _Epsilon:
    """Singleton sentinel for epsilon transitions."""

    _instance: "_Epsilon | None" = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ε"

    def __reduce__(self):
        # Epsilon checks are identity checks (``label is EPSILON``), so
        # unpickling — e.g. shipping AutomatonTables to a worker
        # process — must resolve to the receiving process's singleton,
        # never a second instance.
        return (_Epsilon, ())


#: The epsilon transition label.
EPSILON = _Epsilon()


@dataclass(frozen=True, slots=True)
class VariableMarker:
    """A variable operation: opening or closing a capture variable.

    The paper's ``x⊢`` is ``VariableMarker("x", is_open=True)`` and
    ``⊣x`` is ``VariableMarker("x", is_open=False)``.
    """

    variable: str
    is_open: bool

    def __str__(self) -> str:
        return f"⊢{self.variable}" if self.is_open else f"⊣{self.variable}"

    __repr__ = __str__


def open_marker(variable: str) -> VariableMarker:
    """The opening marker ``x⊢`` for ``variable``."""
    return VariableMarker(variable, True)


def close_marker(variable: str) -> VariableMarker:
    """The closing marker ``⊣x`` for ``variable``."""
    return VariableMarker(variable, False)


def gamma(variables: Iterable[str]) -> frozenset[VariableMarker]:
    """The marker alphabet ``Gamma_V`` for a variable set ``V``."""
    out: set[VariableMarker] = set()
    for v in variables:
        out.add(open_marker(v))
        out.add(close_marker(v))
    return frozenset(out)


def marker_sort_key(marker: VariableMarker) -> tuple[str, bool]:
    """Deterministic total order on markers (opens before closes per var)."""
    return (marker.variable, not marker.is_open)


class SortedPickle(frozenset):
    """A frozenset that pickles its elements in sorted order.

    A frozenset pickles its elements in iteration order, which for
    strings (and markers) follows the process's hash salt
    (``PYTHONHASHSEED``), so one artifact would pickle to different
    bytes, fingerprints and store keys in different processes.  Pickle
    ``SortedPickle(fs)`` in place of ``fs``: its elements go out sorted
    by ``repr`` (deterministic for strings and markers) and it
    unpickles to a plain frozenset, so pickles that hold the plain
    frozenset still load the same.
    """

    __slots__ = ()

    def __reduce__(self):
        return (frozenset, (tuple(sorted(self, key=repr)),))


# ---------------------------------------------------------------------------
# Symbol predicates
# ---------------------------------------------------------------------------


class SymbolPredicate:
    """Base class for terminal transition labels.

    A predicate decides which characters a transition may read.  All
    predicates are immutable, hashable, and totally ordered via
    :meth:`sort_key` (needed by the radix enumeration of Section 4.2
    when it runs over terminal alphabets, e.g. in the test oracle).
    """

    __slots__ = ()

    def matches(self, ch: str) -> bool:
        raise NotImplementedError

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def concretize(self, alphabet: Iterable[str]) -> frozenset[str]:
        """The set of characters from ``alphabet`` this predicate accepts."""
        return frozenset(ch for ch in alphabet if self.matches(ch))


@dataclass(frozen=True, slots=True)
class Chars(SymbolPredicate):
    """Matches exactly the characters in a finite set."""

    chars: frozenset[str]

    def __init__(self, chars: Iterable[str]):
        object.__setattr__(self, "chars", frozenset(chars))

    def matches(self, ch: str) -> bool:
        return ch in self.chars

    def sort_key(self) -> tuple:
        return (0, tuple(sorted(self.chars)))

    def __reduce__(self):
        # Sorted, so the bytes do not follow the hash salt (see
        # :class:`SortedPickle`); pickles of older builds restore
        # through the dataclass ``__setstate__``.
        return (Chars, (tuple(sorted(self.chars)),))

    def __str__(self) -> str:
        inner = "".join(sorted(self.chars))
        return inner if len(inner) == 1 else f"[{inner}]"

    __repr__ = __str__


@dataclass(frozen=True, slots=True)
class NotChars(SymbolPredicate):
    """Matches every character except those in a finite set."""

    chars: frozenset[str]

    def __init__(self, chars: Iterable[str]):
        object.__setattr__(self, "chars", frozenset(chars))

    def matches(self, ch: str) -> bool:
        return ch not in self.chars

    def sort_key(self) -> tuple:
        return (1, tuple(sorted(self.chars)))

    def __reduce__(self):
        # Sorted, so the bytes do not follow the hash salt (see
        # :class:`SortedPickle`); pickles of older builds restore
        # through the dataclass ``__setstate__``.
        return (NotChars, (tuple(sorted(self.chars)),))

    def __str__(self) -> str:
        return f"[^{''.join(sorted(self.chars))}]"

    __repr__ = __str__


@dataclass(frozen=True, slots=True)
class AnyChar(SymbolPredicate):
    """Matches every character (the paper's ``Sigma`` shorthand)."""

    def matches(self, ch: str) -> bool:
        return True

    def sort_key(self) -> tuple:
        return (2,)

    def __str__(self) -> str:
        return "Σ"

    __repr__ = __str__


#: Shared wildcard instance.
ANY = AnyChar()


def char_pred(ch: str) -> Chars:
    """Predicate matching exactly one character."""
    if len(ch) != 1:
        raise ValueError(f"char_pred expects a single character, got {ch!r}")
    return Chars(frozenset((ch,)))


def intersect_predicates(
    a: SymbolPredicate, b: SymbolPredicate
) -> SymbolPredicate | None:
    """Intersection of two predicates, or ``None`` when provably empty.

    Used by the join construction (Lemma 3.10): a terminal product edge
    exists only for characters both factors accept.
    """
    if isinstance(a, AnyChar):
        return b
    if isinstance(b, AnyChar):
        return a
    if isinstance(a, Chars) and isinstance(b, Chars):
        common = a.chars & b.chars
        return Chars(common) if common else None
    if isinstance(a, Chars) and isinstance(b, NotChars):
        common = a.chars - b.chars
        return Chars(common) if common else None
    if isinstance(a, NotChars) and isinstance(b, Chars):
        return intersect_predicates(b, a)
    if isinstance(a, NotChars) and isinstance(b, NotChars):
        return NotChars(a.chars | b.chars)
    raise TypeError(f"cannot intersect {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# Label kind tests
# ---------------------------------------------------------------------------


def is_epsilon(label: object) -> bool:
    """True for the epsilon label."""
    return label is EPSILON


def is_marker(label: object) -> bool:
    """True for a single variable-operation label."""
    return isinstance(label, VariableMarker)


def is_marker_set(label: object) -> bool:
    """True for a multi-operation label (a frozenset of markers).

    Multi-operation transitions are the generalized model proposed in
    the proof of Lemma 3.10; :func:`repro.vset.automaton.expand_multi_ops`
    rewrites them back into single-marker chains.
    """
    return isinstance(label, frozenset)


def is_symbol(label: object) -> bool:
    """True for a terminal (symbol-predicate) label."""
    return isinstance(label, SymbolPredicate)
