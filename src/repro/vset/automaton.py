"""The vset-automaton model (Section 2.2.3).

A vset-automaton ``A = (V, Q, q_0, q_f, delta)`` is an epsilon-NFA over
``Sigma ∪ Gamma_V`` with a single initial and a single final state.  We
represent it as a :class:`~repro.automata.nfa.NFA` plus the variable set
``V``; transition labels follow the library conventions (epsilon,
symbol predicates, markers, marker sets).

Marker-*set* labels are the generalized model from the proof of
Lemma 3.10 ("it might be more advantageous to generalize the definition
of vset-automata to allow sets of variable operations on transitions");
:meth:`VSetAutomaton.expand_multi_ops` rewrites them into chains of
single-marker transitions to recover the strict model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..alphabet import (
    SortedPickle,
    VariableMarker,
    is_epsilon,
    is_marker,
    is_marker_set,
    is_symbol,
    marker_sort_key,
)
from ..automata.nfa import NFA
from ..automata.ops import simulate, trim
from ..errors import SchemaError
from ..refwords import RefSymbol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spans import SpanRelation

__all__ = ["VSetAutomaton"]


class VSetAutomaton:
    """A vset-automaton: an NFA over the extended alphabet plus ``V``.

    Attributes:
        nfa: the underlying automaton; ``nfa.initial`` is ``q_0`` and
            the single element of ``nfa.finals`` is ``q_f``.
        variables: the variable set ``V`` (``Vars(A)``).
    """

    __slots__ = ("nfa", "variables", "__weakref__")

    def __init__(self, nfa: NFA, variables: Iterable[str]):
        if nfa.initial is None:
            raise ValueError("vset-automaton needs an initial state")
        if len(nfa.finals) != 1:
            raise ValueError(
                f"vset-automaton needs exactly one final state, "
                f"got {len(nfa.finals)}"
            )
        self.nfa = nfa
        self.variables = frozenset(variables)
        self._validate_labels()

    def __getstate__(self) -> tuple:
        # The variable set pickles sorted (see
        # :class:`~repro.alphabet.SortedPickle`).
        return (
            None,
            {"nfa": self.nfa, "variables": SortedPickle(self.variables)},
        )

    def _validate_labels(self) -> None:
        for _src, label, _dst in self.nfa.iter_edges():
            if is_epsilon(label) or is_symbol(label):
                continue
            if is_marker(label):
                markers: Sequence[VariableMarker] = (label,)
            elif is_marker_set(label):
                markers = tuple(label)
            else:
                raise SchemaError(f"unsupported transition label {label!r}")
            for marker in markers:
                if marker.variable not in self.variables:
                    raise SchemaError(
                        f"transition uses variable {marker.variable!r} "
                        "outside the automaton's variable set"
                    )

    # -- Basic accessors -----------------------------------------------------
    @property
    def initial(self) -> int:
        assert self.nfa.initial is not None
        return self.nfa.initial

    @property
    def final(self) -> int:
        return next(iter(self.nfa.finals))

    @property
    def n_states(self) -> int:
        return self.nfa.n_states

    @property
    def n_transitions(self) -> int:
        return self.nfa.n_transitions

    # -- Structural operations ---------------------------------------------------
    def trimmed(self) -> "VSetAutomaton":
        """Drop states not on an initial-to-final path.

        If the ref-word language is empty the result keeps a fresh,
        unreachable final state so the single-final invariant holds.
        """
        trimmed_nfa, _mapping = trim(self.nfa)
        if not trimmed_nfa.finals:
            sink = trimmed_nfa.add_state()
            trimmed_nfa.add_final(sink)
        return VSetAutomaton(trimmed_nfa, self.variables)

    def is_empty_language(self) -> bool:
        """True when ``R(A)`` is empty (no initial-to-final path)."""
        trimmed_nfa, _ = trim(self.nfa)
        return not trimmed_nfa.finals

    def compacted(self) -> "VSetAutomaton":
        """Remove pure-epsilon transitions (language-preserving).

        Thompson-constructed automata are epsilon-rich, which inflates
        the variable-epsilon closures that the join construction
        (Lemma 3.10) and the evaluation-graph construction (Theorem 3.3)
        scan.  Compaction rewires every non-epsilon edge to start from
        each state that reaches its source through pure-epsilon moves,
        then drops states with no incoming non-epsilon edge.  Marker and
        marker-set edges are untouched, so functionality and ``R(A)``
        are preserved; the only epsilon edges left are single hops into
        the final state (keeping the single-final invariant).
        """
        from ..automata.ops import closure as _closure

        trimmed = self.trimmed()
        nfa = trimmed.nfa
        eps = [
            _closure(nfa, (q,), is_epsilon) for q in range(nfa.n_states)
        ]
        final = trimmed.final
        initial = trimmed.initial

        new_edges: dict[int, list[tuple[object, int]]] = {}
        accepts_via_eps: set[int] = set()
        for p in range(nfa.n_states):
            edges: list[tuple[object, int]] = []
            seen: set[tuple[object, int]] = set()
            for q in eps[p]:
                for label, r in nfa.transitions[q]:
                    if is_epsilon(label):
                        continue
                    if (label, r) not in seen:
                        seen.add((label, r))
                        edges.append((label, r))
            new_edges[p] = edges
            if final in eps[p]:
                accepts_via_eps.add(p)

        keep = {initial, final}
        for edges in new_edges.values():
            keep.update(r for _, r in edges)

        from ..automata.nfa import NFA as _NFA
        from ..alphabet import EPSILON as _EPS

        out = _NFA()
        mapping = {old: out.add_state() for old in sorted(keep)}
        out.set_initial(mapping[initial])
        out.add_final(mapping[final])
        for old in sorted(keep):
            for label, r in new_edges[old]:
                out.add_transition(mapping[old], label, mapping[r])
            if old in accepts_via_eps and old != final:
                out.add_transition(mapping[old], _EPS, mapping[final])
        return VSetAutomaton(out, self.variables).trimmed()

    def expand_multi_ops(self) -> "VSetAutomaton":
        """Rewrite marker-set transitions into single-marker chains.

        Recovers the strict model of Section 2.2.3.  Each transition
        labelled with a set ``S`` of operations becomes ``|S|``
        consecutive transitions through ``|S| - 1`` fresh states; an
        empty set becomes an epsilon transition.  Opens are serialized
        before closes per variable, alphabetically otherwise — any
        serialization yields an equivalent automaton because only the
        position between terminals matters for the tuple (§4.1).
        """
        from ..alphabet import EPSILON

        out = NFA()
        out.add_states(self.nfa.n_states)
        out.set_initial(self.initial)
        out.add_final(self.final)
        for src, label, dst in self.nfa.iter_edges():
            if not is_marker_set(label):
                out.add_transition(src, label, dst)
                continue
            markers = sorted(label, key=marker_sort_key)
            opens = [m for m in markers if m.is_open]
            closes = [m for m in markers if not m.is_open]
            chain = opens + closes
            if not chain:
                out.add_transition(src, EPSILON, dst)
                continue
            current = src
            for marker in chain[:-1]:
                fresh = out.add_state()
                out.add_transition(current, marker, fresh)
                current = fresh
            out.add_transition(current, chain[-1], dst)
        return VSetAutomaton(out, self.variables)

    # -- Semantics ---------------------------------------------------------------
    def accepts_refword(self, refword: Sequence[RefSymbol]) -> bool:
        """Membership of a concrete ref-word in ``R(A)`` (simulation).

        Marker-set transitions are matched against maximal runs of
        markers only through :meth:`expand_multi_ops`; call that first
        if the automaton uses set labels.
        """
        return simulate(self.nfa, refword)

    def evaluate(self, s: str) -> "SpanRelation":
        """Materialize ``[[A]](s)`` via the Theorem 3.3 enumerator.

        Convenience wrapper; streaming access lives in
        :func:`repro.enumeration.enumerate_tuples`.
        """
        from ..enumeration import enumerate_tuples
        from ..spans import SpanRelation

        return SpanRelation(self.variables, enumerate_tuples(self, s))

    # -- Introspection ---------------------------------------------------------
    def to_dot(self, state_labels: dict[int, str] | None = None) -> str:
        """GraphViz rendering (used by examples and the F1 regeneration)."""
        lines = [
            "digraph vset {",
            "  rankdir=LR;",
            '  node [shape=circle, fontsize=11];',
            f'  {self.final} [shape=doublecircle];',
            f'  __start [shape=point]; __start -> {self.initial};',
        ]
        if state_labels:
            for state, text in state_labels.items():
                lines.append(f'  {state} [label="{text}"];')
        for src, label, dst in self.nfa.iter_edges():
            if is_epsilon(label):
                text = "ε"
            elif is_marker_set(label):
                text = "{" + ",".join(
                    str(m) for m in sorted(label, key=marker_sort_key)
                ) + "}"
            else:
                text = str(label)
            text = text.replace('"', '\\"')
            lines.append(f'  {src} -> {dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"VSetAutomaton(vars={sorted(self.variables)}, "
            f"states={self.n_states}, transitions={self.n_transitions})"
        )
