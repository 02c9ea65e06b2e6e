"""Variable configurations (Section 4.1).

In a functional vset-automaton, every state ``q`` implicitly stores, for
each variable ``x``, whether ``x`` has not been opened yet (*waiting*),
has been opened but not closed (*open*), or has been opened and closed
(*closed*).  The paper writes this as the variable configuration
``~c_q : V -> {w, o, c}``, and identifies each ``(V, s)``-tuple with the
sequence of configurations ``~c_1, ..., ~c_{N+1}`` observed immediately
before each position of ``s`` (plus the final all-closed configuration).

This identification is the paper's main conceptual device: treating
``[[A]](s)`` as a language over the configuration alphabet is "exactly
the level of granularity needed to distinguish different tuples".
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..alphabet import (
    VariableMarker,
    is_epsilon,
    is_marker,
    is_marker_set,
    is_symbol,
)
from ..errors import NotFunctionalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .automaton import VSetAutomaton

__all__ = [
    "WAITING",
    "OPEN",
    "CLOSED",
    "VariableConfiguration",
    "compute_state_configurations",
]

#: Variable states, ordered: a variable only ever moves w -> o -> c.
WAITING, OPEN, CLOSED = 0, 1, 2
_STATE_NAMES = {WAITING: "w", OPEN: "o", CLOSED: "c"}


class VariableConfiguration:
    """An immutable mapping from variables to {waiting, open, closed}.

    Instances are hashable and totally ordered (lexicographically over
    the states of the sorted variable list), which makes them usable as
    letters of the enumeration alphabet ``K`` in Section 4.2.
    """

    __slots__ = ("variables", "states", "_hash")

    def __init__(self, variables: Iterable[str], states: Iterable[int] | None = None):
        vars_tuple = tuple(sorted(variables))
        if states is None:
            states_tuple = (WAITING,) * len(vars_tuple)
        else:
            states_tuple = tuple(states)
        if len(states_tuple) != len(vars_tuple):
            raise ValueError("states must align with sorted variables")
        for st in states_tuple:
            if st not in (WAITING, OPEN, CLOSED):
                raise ValueError(f"invalid variable state {st!r}")
        self.variables: tuple[str, ...] = vars_tuple
        self.states: tuple[int, ...] = states_tuple
        # Configurations are the letters of the enumeration alphabet K:
        # they key dicts on every evaluation-graph edge and every radix
        # bucket, so the hash is computed once, not per lookup.
        self._hash = hash((vars_tuple, states_tuple))

    # -- Constructors -----------------------------------------------------
    @classmethod
    def initial(cls, variables: Iterable[str]) -> "VariableConfiguration":
        """All variables waiting (the configuration of ``q_0``)."""
        return cls(variables)

    @classmethod
    def final(cls, variables: Iterable[str]) -> "VariableConfiguration":
        """All variables closed (the configuration of ``q_f``)."""
        vars_tuple = tuple(sorted(variables))
        return cls(vars_tuple, (CLOSED,) * len(vars_tuple))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "VariableConfiguration":
        vars_tuple = tuple(sorted(mapping))
        return cls(vars_tuple, tuple(mapping[v] for v in vars_tuple))

    # -- Access -----------------------------------------------------------
    def of(self, variable: str) -> int:
        """The state of ``variable`` (raises ``KeyError`` if unknown)."""
        try:
            idx = self.variables.index(variable)
        except ValueError:
            raise KeyError(variable) from None
        return self.states[idx]

    def items(self) -> Iterator[tuple[str, int]]:
        return zip(self.variables, self.states)

    @property
    def is_all_closed(self) -> bool:
        return all(st == CLOSED for st in self.states)

    @property
    def is_all_waiting(self) -> bool:
        return all(st == WAITING for st in self.states)

    # -- Marker application ----------------------------------------------------
    def apply_marker(self, marker: VariableMarker) -> "VariableConfiguration":
        """The configuration after one variable operation.

        Raises:
            NotFunctionalError: when the operation is illegal from this
                configuration (re-opening, closing an unopened variable,
                or touching an unknown variable).
        """
        try:
            idx = self.variables.index(marker.variable)
        except ValueError:
            raise NotFunctionalError(
                f"operation {marker} on variable outside the automaton's set"
            ) from None
        current = self.states[idx]
        if marker.is_open:
            if current != WAITING:
                raise NotFunctionalError(
                    f"variable {marker.variable!r} opened twice"
                    if current == OPEN
                    else f"variable {marker.variable!r} opened after closing"
                )
            new_state = OPEN
        else:
            if current != OPEN:
                raise NotFunctionalError(
                    f"variable {marker.variable!r} closed while "
                    f"{_STATE_NAMES[current]}"
                )
            new_state = CLOSED
        states = list(self.states)
        states[idx] = new_state
        return VariableConfiguration(self.variables, states)

    def apply_markers(self, markers: Iterable[VariableMarker]) -> "VariableConfiguration":
        """Apply a *set* of operations (multi-operation transition).

        Within one transition, an open of ``x`` is applied before a
        close of ``x`` (Lemma 3.10's generalized model compresses a
        marker burst into one edge; the only valid serialization opens
        before closing).
        """
        config = self
        ordered = sorted(markers, key=lambda m: (m.variable, not m.is_open))
        for marker in ordered:
            config = config.apply_marker(marker)
        return config

    def markers_to(self, other: "VariableConfiguration") -> frozenset[VariableMarker]:
        """The operation set turning this configuration into ``other``.

        Raises:
            NotFunctionalError: if some variable would move backwards
                (configurations only ever advance ``w -> o -> c``).
        """
        if self.variables != other.variables:
            raise ValueError("configurations must share the variable set")
        out: set[VariableMarker] = set()
        for var, before, after in zip(self.variables, self.states, other.states):
            if after < before:
                raise NotFunctionalError(
                    f"variable {var!r} moves backwards "
                    f"({_STATE_NAMES[before]} -> {_STATE_NAMES[after]})"
                )
            if before == WAITING and after >= OPEN:
                out.add(VariableMarker(var, True))
            if before <= OPEN and after == CLOSED:
                out.add(VariableMarker(var, False))
        return frozenset(out)

    def restrict(self, variables: Iterable[str]) -> "VariableConfiguration":
        keep = set(variables)
        pairs = [(v, s) for v, s in self.items() if v in keep]
        return VariableConfiguration(
            tuple(v for v, _ in pairs), tuple(s for _, s in pairs)
        )

    def agrees_with(self, other: "VariableConfiguration") -> bool:
        """True when the configurations agree on every shared variable.

        This is the *consistency* condition of Lemma 3.10's product
        states.
        """
        shared = set(self.variables) & set(other.variables)
        return all(self.of(v) == other.of(v) for v in shared)

    def merge(self, other: "VariableConfiguration") -> "VariableConfiguration":
        """Union configuration of two consistent configurations."""
        if not self.agrees_with(other):
            raise ValueError("cannot merge inconsistent configurations")
        mapping = dict(self.items())
        mapping.update(other.items())
        return VariableConfiguration.from_mapping(mapping)

    def __reduce__(self):
        # Rebuild through __init__ so ``_hash`` is recomputed in the
        # receiving process: string hashes are salted per process
        # (PYTHONHASHSEED), so a pickled hash would disagree with every
        # dict the unpickling process builds around fresh
        # configurations.  Pickle's memo still preserves object
        # sharing, so interned configurations stay interned.
        return (VariableConfiguration, (self.variables, self.states))

    # -- Ordering / hashing (the alphabet K) -----------------------------------
    def sort_key(self) -> tuple[int, ...]:
        return self.states

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, VariableConfiguration):
            return NotImplemented
        return self.variables == other.variables and self.states == other.states

    def __lt__(self, other: "VariableConfiguration") -> bool:
        return self.states < other.states

    def __str__(self) -> str:
        inner = ",".join(f"{v}:{_STATE_NAMES[s]}" for v, s in self.items())
        return f"<{inner}>"

    __repr__ = __str__


def compute_state_configurations(
    automaton: "VSetAutomaton",
) -> list[VariableConfiguration | None]:
    """BFS-compute ``~c_q`` for every initial-reachable state.

    Returns a list indexed by state; unreachable states get ``None``.
    This is the ``O(v * m + v * n)`` sweep from the proofs of
    Theorems 2.7 and 3.3.

    Raises:
        NotFunctionalError: if an operation is illegal or two paths
            assign different configurations to one state — both are
            witnesses of non-functionality (given a trimmed automaton).
    """
    nfa = automaton.nfa
    configs: list[VariableConfiguration | None] = [None] * nfa.n_states
    start = nfa.initial
    if start is None:
        raise ValueError("automaton has no initial state")
    configs[start] = VariableConfiguration.initial(automaton.variables)
    queue: deque[int] = deque((start,))
    while queue:
        q = queue.popleft()
        config = configs[q]
        assert config is not None
        for label, dst in nfa.transitions[q]:
            if is_epsilon(label) or is_symbol(label):
                nxt = config
            elif is_marker(label):
                nxt = config.apply_marker(label)
            elif is_marker_set(label):
                nxt = config.apply_markers(label)
            else:
                raise TypeError(f"unknown transition label {label!r}")
            existing = configs[dst]
            if existing is None:
                configs[dst] = nxt
                queue.append(dst)
            elif existing != nxt:
                raise NotFunctionalError(
                    f"state {dst} is reachable with configurations "
                    f"{existing} and {nxt}"
                )
    return configs
