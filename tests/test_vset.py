"""Tests for the vset-automaton model and variable configurations."""

import pytest

from repro.alphabet import (
    EPSILON,
    VariableMarker,
    char_pred,
    close_marker,
    open_marker,
)
from repro.automata.nfa import NFA
from repro.errors import NotFunctionalError, SchemaError
from repro.oracle import oracle_evaluate
from repro.refwords import refword_from_tuple
from repro.vset import (
    CLOSED,
    OPEN,
    WAITING,
    VariableConfiguration,
    VSetAutomaton,
    compile_regex,
    compute_state_configurations,
)


class TestVariableConfiguration:
    def test_initial_and_final(self):
        init = VariableConfiguration.initial(["x", "y"])
        assert init.is_all_waiting
        final = VariableConfiguration.final(["x", "y"])
        assert final.is_all_closed

    def test_of_unknown_raises(self):
        with pytest.raises(KeyError):
            VariableConfiguration.initial(["x"]).of("z")

    def test_apply_open_then_close(self):
        c = VariableConfiguration.initial(["x"])
        c = c.apply_marker(open_marker("x"))
        assert c.of("x") == OPEN
        c = c.apply_marker(close_marker("x"))
        assert c.of("x") == CLOSED

    def test_double_open_rejected(self):
        c = VariableConfiguration.initial(["x"]).apply_marker(open_marker("x"))
        with pytest.raises(NotFunctionalError):
            c.apply_marker(open_marker("x"))

    def test_close_unopened_rejected(self):
        with pytest.raises(NotFunctionalError):
            VariableConfiguration.initial(["x"]).apply_marker(close_marker("x"))

    def test_open_after_close_rejected(self):
        c = VariableConfiguration.final(["x"])
        with pytest.raises(NotFunctionalError):
            c.apply_marker(open_marker("x"))

    def test_unknown_variable_rejected(self):
        with pytest.raises(NotFunctionalError):
            VariableConfiguration.initial(["x"]).apply_marker(open_marker("q"))

    def test_apply_marker_set_open_and_close(self):
        c = VariableConfiguration.initial(["x"])
        c = c.apply_markers({open_marker("x"), close_marker("x")})
        assert c.of("x") == CLOSED

    def test_markers_to(self):
        a = VariableConfiguration.initial(["x", "y"])
        b = VariableConfiguration.from_mapping({"x": CLOSED, "y": OPEN})
        ops = a.markers_to(b)
        assert ops == {
            open_marker("x"),
            close_marker("x"),
            open_marker("y"),
        }

    def test_markers_to_backwards_rejected(self):
        a = VariableConfiguration.final(["x"])
        b = VariableConfiguration.initial(["x"])
        with pytest.raises(NotFunctionalError):
            a.markers_to(b)

    def test_agrees_and_merge(self):
        a = VariableConfiguration.from_mapping({"x": OPEN, "y": WAITING})
        b = VariableConfiguration.from_mapping({"y": WAITING, "z": CLOSED})
        assert a.agrees_with(b)
        merged = a.merge(b)
        assert merged.of("x") == OPEN
        assert merged.of("z") == CLOSED

    def test_disagreement(self):
        a = VariableConfiguration.from_mapping({"x": OPEN})
        b = VariableConfiguration.from_mapping({"x": CLOSED})
        assert not a.agrees_with(b)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_restrict(self):
        a = VariableConfiguration.from_mapping({"x": OPEN, "y": CLOSED})
        assert a.restrict(["y"]) == VariableConfiguration.from_mapping(
            {"y": CLOSED}
        )

    def test_total_order(self):
        a = VariableConfiguration.from_mapping({"x": WAITING})
        b = VariableConfiguration.from_mapping({"x": OPEN})
        c = VariableConfiguration.from_mapping({"x": CLOSED})
        assert a < b < c

    def test_str(self):
        c = VariableConfiguration.from_mapping({"x": OPEN})
        assert str(c) == "<x:o>"


class TestVSetAutomaton:
    def test_requires_initial(self):
        nfa = NFA()
        nfa.add_state()
        with pytest.raises(ValueError):
            VSetAutomaton(nfa, set())

    def test_requires_single_final(self):
        nfa = NFA()
        q = nfa.add_state()
        nfa.set_initial(q)
        with pytest.raises(ValueError):
            VSetAutomaton(nfa, set())

    def test_rejects_foreign_variable_labels(self):
        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, open_marker("q"), b)
        with pytest.raises(SchemaError):
            VSetAutomaton(nfa, {"x"})

    def test_trimmed_keeps_single_final_when_empty(self):
        nfa = NFA()
        a = nfa.add_state()
        b = nfa.add_state()  # unreachable final
        nfa.set_initial(a)
        nfa.add_final(b)
        automaton = VSetAutomaton(nfa, set())
        trimmed = automaton.trimmed()
        assert trimmed.is_empty_language()
        assert len(trimmed.nfa.finals) == 1

    def test_expand_multi_ops_equivalence(self, check_against_oracle):
        # Build an automaton with one multi-op transition by hand.
        nfa = NFA()
        a, b, c = nfa.add_state(), nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(c)
        ops = frozenset(
            {
                open_marker("x"),
                close_marker("x"),
                open_marker("y"),
            }
        )
        nfa.add_transition(a, ops, b)
        nfa.add_transition(b, char_pred("a"), b)
        nfa.add_transition(b, close_marker("y"), c)
        automaton = VSetAutomaton(nfa, {"x", "y"})
        expanded = automaton.expand_multi_ops()
        # No marker-set labels remain.
        assert all(
            not isinstance(label, frozenset)
            for _s, label, _d in expanded.nfa.iter_edges()
        )
        got = check_against_oracle(expanded, "aa")
        assert got  # x=[1,1>, y spans prefixes

    def test_expand_empty_set_becomes_epsilon(self):
        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, frozenset(), b)
        expanded = VSetAutomaton(nfa, set()).expand_multi_ops()
        labels = [label for _s, label, _d in expanded.nfa.iter_edges()]
        assert labels == [EPSILON]

    def test_compacted_preserves_semantics(self, check_against_oracle):
        for pattern, s in [
            ("a*x{a*}a*", "aaa"),
            ("(x{a}|x{b})c?", "ac"),
            (".*x{ab}.*", "abab"),
        ]:
            automaton = compile_regex(pattern)
            compact = automaton.compacted()
            assert compact.n_states <= automaton.n_states
            assert check_against_oracle(compact, s) == oracle_evaluate(
                automaton, s
            )

    def test_compacted_reduces_thompson_bloat(self):
        automaton = compile_regex(".*(x{foo}.*y{bar}|y{bar}.*x{foo}).*")
        compact = automaton.compacted()
        assert compact.n_states < automaton.n_states * 0.6

    def test_to_dot_contains_edges(self):
        automaton = compile_regex("x{a}")
        dot = automaton.to_dot()
        assert "digraph" in dot
        assert "⊢x" in dot

    def test_accepts_refword_is_ref_language_membership(self):
        # §2: [[A]](s) is read off the ref-words of R(A) with clr(r) = s.
        automaton = compile_regex(".*x{ab}y{c}.*")
        s = "zabcz"
        [mu] = oracle_evaluate(automaton, s)
        refword = refword_from_tuple(mu, s)
        assert automaton.accepts_refword(refword)
        # x closed before it opens: no run of A reads it.
        ox = refword.index(open_marker("x"))
        cx = refword.index(close_marker("x"))
        swapped = list(refword)
        swapped[ox], swapped[cx] = swapped[cx], swapped[ox]
        assert not automaton.accepts_refword(tuple(swapped))

    def test_evaluate_convenience(self):
        rel = compile_regex("x{a}").evaluate("a")
        assert len(rel) == 1


class TestComputeStateConfigurations:
    def test_example_4_1_configurations(self):
        automaton = compile_regex("a*x{a*}a*").compacted()
        configs = compute_state_configurations(automaton)
        states = {c.of("x") for c in configs if c is not None}
        assert states == {WAITING, OPEN, CLOSED}
        assert configs[automaton.initial].of("x") == WAITING
        assert configs[automaton.final].of("x") == CLOSED

    def test_conflict_detection(self):
        nfa = NFA()
        a, b, c = nfa.add_state(), nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(c)
        nfa.add_transition(a, open_marker("x"), b)
        nfa.add_transition(a, EPSILON, b)
        nfa.add_transition(b, close_marker("x"), c)
        with pytest.raises(NotFunctionalError):
            compute_state_configurations(VSetAutomaton(nfa, {"x"}))

    def test_unreachable_states_get_none(self):
        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        dead = nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, EPSILON, b)
        configs = compute_state_configurations(VSetAutomaton(nfa, set()))
        assert configs[dead] is None
