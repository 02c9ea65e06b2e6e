"""Tests for the Theorem 3.3 enumerator, including the paper's examples."""

import pytest

from repro.enumeration import (
    SpannerEvaluator,
    build_evaluation_graph,
    decode_configuration_word,
    enumerate_tuples,
    graph_tuples,
    measure_delays,
)
from repro.enumeration.graph import EvaluationGraph
from repro.errors import NotFunctionalError
from repro.queries import CompiledEvaluator, RegexCQ
from repro.runtime import CompiledSpanner
from repro.runtime.fusion import fused_sweep
from repro.spans import Span, SpanTuple
from repro.text import log_lines, repeats_text
from repro.vset import VSetAutomaton, compile_regex
from repro.vset.configurations import CLOSED, OPEN, WAITING, VariableConfiguration
from repro.alphabet import char_pred, close_marker, open_marker
from repro.automata.leveled import LeveledNFA, RadixEnumerator
from repro.automata.nfa import NFA


def radix_reference(graph: EvaluationGraph) -> list[SpanTuple]:
    """The paper's Algorithms 1–3 plus per-word decoding: the reference
    the event-compressed walk must match tuple for tuple, in order."""
    words = RadixEnumerator(graph.leveled, lambda config: config.sort_key())
    return [decode_configuration_word(word, graph.variables) for word in words]


def assert_walk_matches_reference(graph: EvaluationGraph) -> list[SpanTuple]:
    got = list(graph_tuples(graph))
    assert got == radix_reference(graph)
    return got


def _spans(tuples, var="x"):
    return sorted((t[var].start, t[var].end) for t in tuples)


class TestPaperExamples:
    def test_example_4_2_table(self):
        """[[A_fun]]("aa") is exactly the six tuples of Example 4.2."""
        automaton = compile_regex("a*x{a*}a*")
        got = _spans(enumerate_tuples(automaton, "aa"))
        assert got == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_example_a1_table(self):
        """[[A]]("aaa") is exactly the ten tuples of Example A.1."""
        automaton = compile_regex("a*x{a*}a*")
        got = _spans(enumerate_tuples(automaton, "aaa"))
        assert got == [
            (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 2), (2, 3), (2, 4),
            (3, 3), (3, 4),
            (4, 4),
        ]

    def test_example_a2_single_tuple(self):
        """Example A.2: exponentially many paths, single tuple."""
        # x{(a|aa)*} over a^n: every run spans the whole string, so
        # [[A]](s) = { x = [1, n+1> } despite ~2^n accepting paths.
        automaton = compile_regex("x{(a|aa)*}")
        for n in (3, 6, 9):
            got = list(enumerate_tuples(automaton, "a" * n))
            assert got == [SpanTuple({"x": Span(1, n + 1)})]

    def test_example_a1_graph_shape(self):
        """The A_G of Example A.1 has 3 states per inner level."""
        automaton = compile_regex("a*x{a*}a*").compacted()
        graph = build_evaluation_graph(automaton, "aaa")
        leveled = graph.leveled
        # Words have length N+1 = 4.
        assert leveled.n_slots == 4
        assert leveled.count_words() == 10


class TestEnumerationContracts:
    def test_radix_order(self):
        evaluator = SpannerEvaluator(compile_regex("a*x{a*}a*"), "aaaa")
        words = list(evaluator.configuration_words())
        keys = [tuple(k.sort_key() for k in w) for w in words]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        automaton = compile_regex(".*x{(a|b)+}.*")
        out = list(enumerate_tuples(automaton, "abab"))
        assert len(out) == len(set(out))

    def test_count_matches_enumeration(self):
        automaton = compile_regex(".*x{a+}.*y{b+}.*")
        s = "aabbab"
        evaluator = SpannerEvaluator(automaton, s)
        assert evaluator.count() == len(list(evaluator))

    def test_empty_string_single_tuple(self):
        automaton = compile_regex("x{}")
        assert list(enumerate_tuples(automaton, "")) == [
            SpanTuple({"x": Span(1, 1)})
        ]

    def test_empty_string_no_match(self):
        automaton = compile_regex("x{a}")
        assert list(enumerate_tuples(automaton, "")) == []

    def test_empty_language(self):
        automaton = compile_regex("∅", require_functional=False)
        automaton = VSetAutomaton(automaton.nfa, set())
        evaluator = SpannerEvaluator(automaton, "abc")
        assert evaluator.is_empty()
        assert list(evaluator) == []

    def test_no_match_on_string(self):
        automaton = compile_regex("x{a}")
        evaluator = SpannerEvaluator(automaton, "bbb")
        assert evaluator.is_empty()
        assert evaluator.count() == 0

    def test_boolean_spanner_true_false(self):
        automaton = compile_regex(".*ab.*")
        assert list(enumerate_tuples(automaton, "zabz")) == [SpanTuple({})]
        assert list(enumerate_tuples(automaton, "zz")) == []

    def test_non_functional_input_rejected(self):
        bad = compile_regex("x{a}x{b}", require_functional=False)
        with pytest.raises(NotFunctionalError):
            SpannerEvaluator(bad, "ab")

    def test_unclosed_variable_rejected(self):
        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, open_marker("x"), b)
        with pytest.raises(NotFunctionalError):
            SpannerEvaluator(VSetAutomaton(nfa, {"x"}), "")

    def test_graph_statistics_exposed(self):
        evaluator = SpannerEvaluator(compile_regex("a*x{a*}a*"), "aa")
        assert evaluator.graph_nodes > 0
        assert evaluator.graph_edges > 0

    def test_multiple_variables(self, check_against_oracle):
        automaton = compile_regex(".*x{a+}y{b+}.*")
        check_against_oracle(automaton, "aabba")

    def test_marker_only_burst_at_end(self, check_against_oracle):
        automaton = compile_regex("ab(x{})")
        got = check_against_oracle(automaton, "ab")
        assert got == {SpanTuple({"x": Span(3, 3)})}


class TestDecoding:
    def test_decode_configuration_word(self):
        w = VariableConfiguration.from_mapping
        word = [
            w({"x": WAITING}),
            w({"x": OPEN}),
            w({"x": CLOSED}),
        ]
        mu = decode_configuration_word(word, frozenset({"x"}))
        assert mu == SpanTuple({"x": Span(2, 3)})

    def test_decode_immediately_closed(self):
        w = VariableConfiguration.from_mapping
        word = [w({"x": CLOSED}), w({"x": CLOSED})]
        mu = decode_configuration_word(word, frozenset({"x"}))
        assert mu == SpanTuple({"x": Span(1, 1)})

    def test_decode_never_closed_rejected(self):
        w = VariableConfiguration.from_mapping
        with pytest.raises(ValueError):
            decode_configuration_word([w({"x": OPEN})], frozenset({"x"}))


class TestEventWalkMatchesRadixReference:
    """``graph_tuples`` yields the reference's tuples in the same order."""

    @pytest.mark.parametrize("n_lines", [1, 4, 20])
    def test_dense_digit_spans(self, n_lines):
        s = "\n".join([log_lines(4, seed=2)] * 5).split("\n")[:n_lines]
        graph = build_evaluation_graph(
            compile_regex(".*x{[0-9]+}.*"), "\n".join(s)
        )
        got = assert_walk_matches_reference(graph)
        # Every code=NNN and HH/MM/SS field: a tuple per digit sub-run.
        assert len(got) >= 6 * n_lines

    @pytest.mark.parametrize("n_lines", [1, 2])
    def test_dense_two_variables(self, n_lines):
        doc = "\n".join([log_lines(1, seed=5)] * n_lines)
        graph = build_evaluation_graph(
            compile_regex(".*x{[0-9]+}.*y{[a-z]+}.*"), doc
        )
        got = assert_walk_matches_reference(graph)
        assert len(got) > 100

    @pytest.mark.parametrize(
        "formula, s",
        [
            ("a*x{a*}a*", "aaaaaaa"),
            ("x{(a|aa)*}", "a" * 9),
            (".*x{a+}.*y{b+}.*", "aabbabab"),
            (".*x{(a|b)+}.*", "abab"),
            ("x{.*}y{.*}", "abc"),
            (".*x{y{a}b}.*", "abab"),
        ],
    )
    def test_small_shapes(self, formula, s):
        assert_walk_matches_reference(build_evaluation_graph(compile_regex(formula), s))

    def test_empty_string(self):
        graph = build_evaluation_graph(compile_regex("x{}"), "")
        assert assert_walk_matches_reference(graph) == [SpanTuple({"x": Span(1, 1)})]

    def test_boolean_spanner(self):
        graph = build_evaluation_graph(compile_regex(".*ab.*"), "zabzab")
        assert assert_walk_matches_reference(graph) == [SpanTuple({})]

    def test_empty_language(self):
        automaton = compile_regex("∅", require_functional=False)
        graph = build_evaluation_graph(VSetAutomaton(automaton.nfa, set()), "abc")
        assert assert_walk_matches_reference(graph) == []

    def test_no_match_document(self):
        graph = build_evaluation_graph(compile_regex(".*x{[0-9]+}.*"), "no digits")
        assert assert_walk_matches_reference(graph) == []

    def test_never_closed_variable_raises(self):
        leveled = LeveledNFA(2)
        opened = VariableConfiguration.from_mapping({"x": OPEN})
        first, second = leveled.add_node(1), leveled.add_node(2)
        leveled.add_edge(LeveledNFA.ROOT, opened, first)
        leveled.add_edge(first, opened, second)
        leveled.mark_accepting(second)
        graph = EvaluationGraph(leveled, frozenset({"x"}), 2)
        with pytest.raises(ValueError, match="never closes"):
            radix_reference(graph)
        with pytest.raises(ValueError, match="never closes"):
            list(graph_tuples(graph))

    def test_fused_sweep_graphs(self):
        formulas = [".*x{[0-9]+}.*", ".*x{[a-z]+}=.*", "x{.*}y{[0-9]+}", ".*ab.*"]
        tables = [CompiledSpanner(f).tables for f in formulas]
        doc = log_lines(3, seed=7)
        graphs = fused_sweep(list(enumerate(tables)), doc)
        assert sorted(graphs) == list(range(len(formulas)))
        for member, graph in graphs.items():
            got = assert_walk_matches_reference(graph)
            solo = CompiledSpanner(formulas[member])
            assert got == list(solo.stream(doc))

    def test_equality_stream(self):
        query = RegexCQ(
            ["x", "y"], [".*x{[ab]+}.*", ".*y{[ab]+}.*"], equalities=[("x", "y")]
        )
        engine = CompiledEvaluator().equality_runtime(query)
        for seed in range(4):
            doc = repeats_text(8, seed=seed)
            graph = build_evaluation_graph(engine.compile_for(doc), doc)
            assert list(engine.stream(doc)) == radix_reference(graph)

    def test_generator_is_lazy_and_resumable(self):
        graph = build_evaluation_graph(compile_regex("a*x{a*}a*"), "a" * 30)
        stream = graph_tuples(graph)
        head = [next(stream) for _ in range(5)]
        assert head + list(stream) == radix_reference(graph)


class TestDelayInstrumentation:
    def test_measure_delays_counts(self):
        automaton = compile_regex("a*x{a*}a*")
        report = measure_delays(automaton, "aaa")
        assert report.count == 10
        assert report.preprocessing_seconds >= 0
        assert report.max_delay >= report.mean_delay >= 0
        assert not report.truncated

    def test_measure_delays_limit(self):
        automaton = compile_regex("a*x{a*}a*")
        report = measure_delays(automaton, "aaaa", limit=3)
        assert report.count == 3
        assert report.truncated

    def test_total_seconds(self):
        automaton = compile_regex("x{a}")
        report = measure_delays(automaton, "a")
        assert report.total_seconds >= report.preprocessing_seconds
