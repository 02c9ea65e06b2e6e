"""Tests for CQ/UCQ construction and the two evaluation strategies."""

import pytest

from repro.errors import EvaluationError, QueryError
from repro.queries import (
    CanonicalEvaluator,
    CompiledEvaluator,
    EqualityAtom,
    PlanDecision,
    QueryEvaluator,
    RegexAtom,
    RegexCQ,
    RegexUCQ,
    choose_strategy,
    polynomial_bound_certificate,
)
from repro.queries.atoms import merge_equality_atoms
from repro.spans import Span, SpanTuple


class TestConstruction:
    def test_auto_naming(self):
        cq = RegexCQ(["x"], [".*x{a}.*", ".*x{a}b.*"])
        assert [a.name for a in cq.regex_atoms] == ["R0", "R1"]

    def test_explicit_atoms(self):
        atom = RegexAtom.make("Sen", ".*x{a}.*")
        cq = RegexCQ(["x"], [atom])
        assert cq.regex_atoms[0].name == "Sen"

    def test_duplicate_atom_names_rejected(self):
        a = RegexAtom.make("R", "x{a}")
        b = RegexAtom.make("R", "y{b}")
        with pytest.raises(QueryError):
            RegexCQ([], [a, b])

    def test_no_atoms_rejected(self):
        with pytest.raises(QueryError):
            RegexCQ([], [])

    def test_head_must_be_bound(self):
        with pytest.raises(QueryError):
            RegexCQ(["zzz"], ["x{a}"])

    def test_duplicate_head_rejected(self):
        with pytest.raises(QueryError):
            RegexCQ(["x", "x"], ["x{a}"])

    def test_equality_vars_must_occur_in_regex_atoms(self):
        with pytest.raises(QueryError):
            RegexCQ([], ["x{a}"], equalities=[("x", "ghost")])

    def test_equality_atom_validation(self):
        with pytest.raises(QueryError):
            EqualityAtom(("x",))
        with pytest.raises(QueryError):
            EqualityAtom(("x", "x"))

    def test_merge_equality_atoms(self):
        merged = merge_equality_atoms(
            [EqualityAtom(("x", "y")), EqualityAtom(("y", "z")), EqualityAtom(("p", "q"))]
        )
        groups = {atom.variables for atom in merged}
        assert groups == {("x", "y", "z"), ("p", "q")}

    def test_ucq_head_mismatch_rejected(self):
        with pytest.raises(QueryError):
            RegexUCQ(
                [RegexCQ(["x"], ["x{a}"]), RegexCQ(["y"], ["y{a}"])]
            )

    def test_ucq_shape(self):
        u = RegexUCQ(
            [
                RegexCQ(["x"], ["x{a}", "x{a}b*"]),
                RegexCQ(["x"], ["x{b}"]),
            ]
        )
        assert u.max_atom_count == 2
        assert not u.has_equalities
        assert len(u) == 2

    def test_ucq_max_equality_count(self):
        # Corollary 5.5's m: the most equality groups of any disjunct.
        u = RegexUCQ(
            [
                RegexCQ(
                    ["x"],
                    [".*x{a+}.*", ".*y{a+}.*"],
                    equalities=[["x", "y"]],
                ),
                RegexCQ(
                    ["x"],
                    [".*x{a+}.*", ".*y{a+}.*", ".*z{b+}.*", ".*w{b+}.*"],
                    equalities=[["x", "y"], ["z", "w"]],
                ),
                RegexCQ(["x"], [".*x{a}.*"]),
            ]
        )
        assert [cq.equality_count for cq in u] == [1, 2, 0]
        assert u.max_equality_count == 2
        assert u.max_atom_count == 4

    def test_str_rendering(self):
        cq = RegexCQ(["x"], ["x{a}"], equalities=[])
        assert "pi[x]" in str(cq)


class TestStrategyAgreement:
    """Both strategies must compute identical relations."""

    CASES = [
        (RegexCQ(["x", "y"], [".*x{a+}.*", ".*y{b+}.*"]), "aabba"),
        (RegexCQ(["x"], [".*x{a+}.*", ".*x{a+}b.*"]), "aabaa"),
        (RegexCQ([], [".*x{ab}.*"]), "zabz"),
        (RegexCQ([], [".*x{ab}.*"]), "zzz"),
        (
            RegexCQ(
                ["x", "y"],
                [".*x{a+}.*", ".*y{a+}.*"],
                equalities=[("x", "y")],
            ),
            "aba",
        ),
        (
            RegexUCQ(
                [
                    RegexCQ(["x"], [".*x{a+}.*"]),
                    RegexCQ(["x"], [".*x{b+}.*"]),
                ]
            ),
            "abab",
        ),
    ]

    @pytest.mark.parametrize("query, s", CASES)
    def test_agreement(self, query, s):
        canonical = CanonicalEvaluator().evaluate(query, s)
        compiled = CompiledEvaluator().evaluate(query, s)
        assert canonical == compiled

    def test_ucq_duplicate_dedup(self):
        # Same disjunct twice: answers must not repeat.
        u = RegexUCQ(
            [RegexCQ(["x"], ["x{a}"]), RegexCQ(["x"], ["x{a}"])]
        )
        rel = CompiledEvaluator().evaluate(u, "a")
        assert len(rel) == 1
        assert CanonicalEvaluator().evaluate(u, "a") == rel

    def test_cartesian_when_variable_disjoint(self):
        cq = RegexCQ(["x", "y"], ["x{a}.*", ".*y{b}"])
        rel = CanonicalEvaluator().evaluate(cq, "ab")
        assert rel == CompiledEvaluator().evaluate(cq, "ab")
        assert len(rel) == 1

    def test_compiled_stream_is_lazy_and_complete(self):
        cq = RegexCQ(["x"], [".*x{a*}.*"])
        stream = CompiledEvaluator().stream(cq, "aa")
        first = next(stream)
        rest = list(stream)
        assert len(rest) + 1 == 6

    def test_boolean_evaluations(self):
        cq = RegexCQ([], [".*x{ab}.*"])
        assert CanonicalEvaluator().evaluate_boolean(cq, "ab")
        assert CompiledEvaluator().evaluate_boolean(cq, "ab")
        assert not CanonicalEvaluator().evaluate_boolean(cq, "ba")
        assert not CompiledEvaluator().evaluate_boolean(cq, "ba")


class TestCanonicalInternals:
    def test_stats_expose_cardinalities(self):
        cq = RegexCQ(["x"], [".*x{a+}.*"])
        evaluator = CanonicalEvaluator()
        evaluator.evaluate(cq, "aaa")
        stats = evaluator.last_stats
        assert stats is not None
        assert stats.atom_cardinalities["R0"] == 6
        assert stats.used_yannakakis

    def test_atom_budget_enforced(self):
        cq = RegexCQ(["x"], [".*x{.*}.*"])
        evaluator = CanonicalEvaluator(atom_budget=3)
        with pytest.raises(EvaluationError):
            evaluator.evaluate(cq, "abcdefgh")

    def test_cyclic_query_uses_generic(self):
        tri = RegexCQ(
            [],
            [
                ".*x{a}.*y{a}.*",
                ".*y{a}.*z{a}.*",
                ".*x{a}.*z{a}.*",
            ],
        )
        evaluator = CanonicalEvaluator()
        result = evaluator.evaluate_boolean(tri, "aaa")
        assert result
        assert not evaluator.last_stats.used_yannakakis


class TestPlanner:
    def test_prefers_canonical_for_acyclic_bounded(self):
        cq = RegexCQ(["x"], [".*x{a+}.*"])
        decision = choose_strategy(cq, "aaa")
        assert decision.strategy == "canonical"
        assert "Theorem 3.5" in decision.reason

    def test_prefers_compiled_for_cyclic_small_k(self):
        tri = RegexCQ(
            [],
            [
                ".*x{a}.*y{a}.*",
                ".*y{a}.*z{a}.*",
                ".*x{a}.*z{a}.*",
            ],
        )
        decision = choose_strategy(tri, "aaa")
        assert decision.strategy == "compiled"

    def test_materialization_ceiling_pushes_to_compiled(self):
        cq = RegexCQ(["x"], [".*x{a+}.*"])
        decision = choose_strategy(cq, "a" * 50, materialization_ceiling=10)
        assert decision.strategy == "compiled"

    def test_forced_strategy(self):
        cq = RegexCQ(["x"], [".*x{a+}.*"])
        evaluator = QueryEvaluator()
        rel_auto = evaluator.evaluate(cq, "aa")
        rel_forced = evaluator.evaluate(cq, "aa", strategy="compiled")
        assert rel_auto == rel_forced
        assert evaluator.last_decision.reason == "forced by caller"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            QueryEvaluator().evaluate(
                RegexCQ([], ["x{a}"]), "a", strategy="quantum"
            )

    def test_decision_dataclass(self):
        decision = PlanDecision("canonical", "why", 10)
        assert decision.strategy == "canonical"


class TestBoundedCertificates:
    def test_bounded_variables_certificate(self):
        atom = RegexAtom.make("R", ".*x{a}.*")
        cert = polynomial_bound_certificate(atom)
        assert cert.bounded
        assert cert.kind == "bounded-variables"
        assert cert.degree == 2

    def test_key_attribute_certificate(self):
        # Five variables chained deterministically after x: x is a key.
        atom = RegexAtom.make(
            "R", "v{a*}w{b}x{a}y{b}z{a}"
        )
        cert = polynomial_bound_certificate(atom, max_variables=3)
        assert cert.bounded
        assert cert.kind == "key-attribute"

    def test_no_certificate(self):
        atom = RegexAtom.make(
            "R", ".*v{a}.*w{a}.*x{a}.*y{a}.*"
        )
        cert = polynomial_bound_certificate(atom, max_variables=3)
        assert not cert.bounded
        assert cert.degree is None
