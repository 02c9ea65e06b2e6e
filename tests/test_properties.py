"""Property-based tests (hypothesis) on the engine's core invariants.

The heavyweight invariant: on *random functional regex formulas* and
*random strings*, the production pipeline (compile → configurations →
leveled graph → radix enumeration) agrees with the brute-force ref-word
oracle, which implements the paper's definitions literally.  The
compiled path's state-set evaluation, whose memos outlive a document,
is checked on document streams against the pruned ``A_G`` and the
paper's radix enumerator, and so is the cold evaluator, which walks
state sets on one-off tables.  Around it,
algebraic laws (join/projection/union against their relational
counterparts), encode/decode round trips, and ordering contracts.
"""

from __future__ import annotations

import pickle
from itertools import islice, product as cartesian_product

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.automata.leveled import RadixEnumerator
from repro.enumeration import (
    SpannerEvaluator,
    build_evaluation_graph,
    decode_configuration_word,
    enumerate_tuples,
)
from repro.enumeration.enumerator import event_offsets, walk_tuples
from repro.enumeration.statesets import StateSetLevels
from repro.errors import NotFunctionalError
from repro.oracle import oracle_evaluate
from repro.queries import CompiledEvaluator, RegexCQ, RegexUCQ
from repro.refwords import refword_from_tuple, tuple_from_refword, clr
from repro.regex import check_functional
from repro.regex.ast import (
    Capture,
    CharClass,
    Concat,
    Epsilon,
    RegexFormula,
    Star,
    Union,
)
from repro.alphabet import ANY, Chars
from repro.relational.hypergraph import Hypergraph
from repro.relational.relation import Relation
from repro.relational.yannakakis import evaluate_acyclic
from repro.relational.generic import evaluate_generic
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.runtime.cache import LRUCache
from repro.runtime.fusion import FusedQuery, fused_sweep
from repro.spans import Span, SpanTuple
from repro.vset import (
    VSetAutomaton,
    compile_regex,
    equality_automaton,
    join,
    project,
    union,
)
from repro.vset.analysis import is_empty_on
from repro.vset.functionality import is_vset_functional

ALPHABET = "ab"

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _leaf() -> st.SearchStrategy[RegexFormula]:
    return st.one_of(
        st.sampled_from([CharClass(Chars("a")), CharClass(Chars("b"))]),
        st.just(Epsilon()),
        st.just(CharClass(Chars("ab"))),
    )


def _nested_captures(variables: tuple[str, ...]) -> st.SearchStrategy[RegexFormula]:
    """The minimal functional formula binding ``variables``: nested
    captures around a leaf."""

    def wrap(leaf: RegexFormula) -> RegexFormula:
        formula = leaf
        for var in reversed(variables):
            formula = Capture(var, formula)
        return formula

    return _leaf().map(wrap)


def _formula_over(variables: tuple[str, ...], depth: int) -> st.SearchStrategy[RegexFormula]:
    """Random *functional by construction* formula binding exactly
    ``variables``."""
    if not variables:
        if depth <= 0:
            return _leaf()
        sub = _formula_over((), depth - 1)
        return st.one_of(
            _leaf(),
            st.builds(Star, sub),
            st.builds(Concat, sub, sub),
            st.builds(Union, sub, sub),
        )
    if depth <= 0:
        return _nested_captures(variables)

    # Must bind all variables exactly once on every path.
    head, rest = variables[0], variables[1:]
    strategies = []
    # Capture the first variable around a formula binding a subset.
    strategies.append(
        st.builds(
            Capture,
            st.just(head),
            _formula_over(rest, depth - 1),
        )
    )
    if rest:
        # Split variables across a concatenation.
        strategies.append(
            st.builds(
                Concat,
                _formula_over((head,), depth - 1),
                _formula_over(rest, depth - 1),
            )
        )
    else:
        strategies.append(
            st.builds(
                Concat,
                _formula_over((head,), depth - 1),
                _formula_over((), depth - 1),
            )
        )
        strategies.append(
            st.builds(
                Concat,
                _formula_over((), depth - 1),
                _formula_over((head,), depth - 1),
            )
        )
    # Union: both branches bind the same variables.
    strategies.append(
        st.builds(
            Union,
            _formula_over(variables, depth - 1),
            _formula_over(variables, depth - 1),
        )
    )
    return st.one_of(*strategies)


@st.composite
def functional_formulas(draw, max_variables: int = 2) -> RegexFormula:
    n_vars = draw(st.integers(0, max_variables))
    variables = tuple(f"v{i}" for i in range(n_vars))
    formula = draw(_formula_over(variables, depth=2))
    report = check_functional(formula)
    assert report.functional, f"strategy produced non-functional {formula}"
    return formula


_ANYTHING = Star(CharClass(ANY))


@st.composite
def anywhere_formulas(draw, max_variables: int = 2) -> RegexFormula:
    """:func:`functional_formulas`, read anywhere (``.*F.*``) half the
    time, so a document has many tuples, not at most one."""
    formula = draw(functional_formulas(max_variables))
    if draw(st.booleans()):
        formula = Concat(Concat(_ANYTHING, formula), _ANYTHING)
    return formula


#: Formulas whose walk paths merge into one state set before they
#: close, with a document where they do, for ``@example``.
MERGING = (
    ("a*x{a*}a*", "aaaa"),
    (".*v0{a*}v1{b*}.*", "aabbab"),
    (".*v0{(a|aa)*}.*", "aaaa"),
)


short_strings = st.text(alphabet=ALPHABET, max_size=4)
tiny_strings = st.text(alphabet=ALPHABET, max_size=3)
#: Up to 40 characters; the digit alphabet adds documents whose sweep
#: dies part-way (no formula leaf reads a digit).
long_strings = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.text(alphabet=ALPHABET + "0", max_size=40),
)
#: Tuples compared per case: radix order makes equal prefixes meaningful.
WALK_PREFIX = 400


# ---------------------------------------------------------------------------
# Engine vs oracle
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(functional_formulas(), short_strings)
def test_engine_matches_oracle(formula, s):
    automaton = compile_regex(formula)
    engine = set(enumerate_tuples(automaton, s))
    oracle = oracle_evaluate(automaton, s)
    assert engine == oracle


@settings(max_examples=40, deadline=None)
@given(functional_formulas(), short_strings)
def test_compaction_is_semantics_preserving(formula, s):
    automaton = compile_regex(formula)
    compact = automaton.compacted()
    assert set(enumerate_tuples(compact, s)) == set(
        enumerate_tuples(automaton, s)
    )


@settings(max_examples=40, deadline=None)
@given(functional_formulas(), short_strings)
def test_enumeration_order_and_uniqueness(formula, s):
    evaluator = SpannerEvaluator(compile_regex(formula), s)
    words = list(evaluator.configuration_words())
    keys = [tuple(k.sort_key() for k in w) for w in words]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


@settings(max_examples=40, deadline=None)
@given(anywhere_formulas(), short_strings)
@example(*MERGING[0])
@example(*MERGING[1])
@example(*MERGING[2])
def test_count_matches_enumeration(formula, s):
    evaluator = SpannerEvaluator(compile_regex(formula), s)
    assert evaluator.count() == len(list(evaluator))


def _radix_prefix(graph):
    words = RadixEnumerator(graph.leveled, lambda config: config.sort_key())
    return [
        decode_configuration_word(word, graph.variables)
        for word in islice(words, WALK_PREFIX)
    ]


@settings(max_examples=80, deadline=None)
@given(anywhere_formulas(), long_strings)
@example(*MERGING[0])
@example(*MERGING[1])
@example(*MERGING[2])
def test_event_walk_matches_radix_reference(formula, s):
    """The walk over state sets on one-off tables yields the paper's
    radix order, tuple for tuple, and the offsets decoder yields each
    tuple's span positions."""
    automaton = compile_regex(formula)
    graph = build_evaluation_graph(automaton, s)
    levels = StateSetLevels(AutomatonTables(automaton), s)
    got = list(islice(walk_tuples(levels), WALK_PREFIX))
    assert got == _radix_prefix(graph)
    assert len(got) == graph.leveled.count_words(cap=WALK_PREFIX)
    offsets = islice(walk_tuples(levels, event_offsets), WALK_PREFIX)
    assert list(offsets) == [
        [x for _, span in sorted(mu.items()) for x in (span.start, span.end)]
        for mu in got
    ]


#: Padding no capture reads, so no marker fires inside a run of it: the
#: state-set walk jumps it, and an equality product records each pair
#: that only reads it as one stretch id, which the walk jumps too.
PAD = "-"


@st.composite
def padded_strings(draw, max_size: int = 40) -> str:
    """Runs of a/b with long padding before, between and after them."""
    runs = draw(st.lists(
        st.text(alphabet=ALPHABET, min_size=1, max_size=4), max_size=3
    ))
    pads = draw(st.lists(
        st.integers(0, 14), min_size=len(runs) + 1, max_size=len(runs) + 1
    ))
    s = PAD * pads[0] + "".join(
        run + PAD * pad for run, pad in zip(runs, pads[1:])
    )
    return s[:max_size]


_A, _B, _DASH = (CharClass(Chars(ch)) for ch in "ab" + PAD)
#: What may precede a formula's first capture: anything, or patterns
#: that read the padding statefully (dash parity, dashes after an
#: ``a``), so the all-WAITING part of a live set changes from level to
#: level inside a silent stretch.
_LEADS = (
    _ANYTHING,
    Star(Union(Union(Concat(_DASH, _DASH), _A), _B)),
    Concat(_ANYTHING, Concat(_A, Star(_DASH))),
)


@st.composite
def padded_formulas(draw) -> RegexFormula:
    """``LF.*`` (``F`` has zero to two variables; none is a Boolean
    head; ``L`` is one of :data:`_LEADS`) or ``.*F.*G.*`` with one
    variable each, so the two close in different runs, across padding.
    """
    anything = _ANYTHING
    if draw(st.booleans()):
        lead = draw(st.sampled_from(_LEADS))
        return Concat(Concat(lead, draw(functional_formulas())), anything)
    first = draw(_formula_over(("v0",), depth=2))
    second = draw(_formula_over(("v1",), depth=2))
    return Concat(
        Concat(Concat(Concat(anything, first), anything), second), anything
    )


def _assert_counts(count, got: list) -> None:
    """``count(cap)`` against the number of tuples the walk yielded."""
    for cap in (0, 1, 2, WALK_PREFIX):
        assert count(cap) == min(len(got), cap)
    if len(got) < WALK_PREFIX:
        assert count(None) == len(got)


@settings(max_examples=80, deadline=None)
@given(padded_formulas(), st.lists(padded_strings(), min_size=1, max_size=3))
def test_padded_walk_matches_radix_reference(formula, docs):
    """Long marker-free padding: the state-set walk jumps it, a word
    ends at its all-closed letter, and the order stays the paper's."""
    spanner = CompiledSpanner(formula)
    for s in docs:
        graph = build_evaluation_graph(spanner.automaton, s)
        want = _radix_prefix(graph)
        got = list(islice(spanner.stream(s), WALK_PREFIX))
        assert got == want
        _assert_counts(lambda cap: spanner.count(s, cap=cap), got)
        assert spanner.is_empty(s) == (not want)


@settings(max_examples=30, deadline=None)
@given(functional_formulas(), functional_formulas(), long_strings)
def test_fused_sweep_walk_matches_radix_reference(f1, f2, s):
    """Each fused sweep member's stream is the radix order of its
    ``fused_sweep`` graph."""
    entries = [(0, CompiledSpanner(f1).tables), (1, CompiledSpanner(f2).tables)]
    engine = FusedQuery([(f"q{i}", tables) for i, tables in entries])
    streams = engine.materialize().streams(s)
    for member, graph in fused_sweep(entries, s).items():
        got = list(islice(streams[member], WALK_PREFIX))
        assert got == _radix_prefix(graph)


# ---------------------------------------------------------------------------
# The tables-less evaluator vs the pruned A_G reference
# ---------------------------------------------------------------------------

_EMPTY_NFA = compile_regex("∅", require_functional=False).nfa


@st.composite
def trimmed_only_automata(draw) -> VSetAutomaton:
    """Automata a cold evaluator trims but never compacts: compiled
    formulas with their epsilon chains, unions of identical copies (the
    E1b ``grown_automaton`` shape), Boolean automata and the empty
    language.  A formula is often read anywhere (``.*F.*``), so the
    longer strings still have many tuples."""
    kind = draw(st.sampled_from(("compiled", "grown", "boolean", "empty")))
    if kind == "empty":
        return VSetAutomaton(_EMPTY_NFA, draw(st.sampled_from((set(), {"v0"}))))
    max_variables = 0 if kind == "boolean" else 2
    formula = draw(functional_formulas(max_variables))
    if draw(st.booleans()):
        formula = Concat(Concat(_ANYTHING, formula), _ANYTHING)
    automaton = compile_regex(formula)
    if kind == "grown":
        automaton = union([automaton] * draw(st.integers(2, 3)))
    return automaton


@settings(max_examples=80, deadline=None)
@given(trimmed_only_automata(), st.one_of(st.just(""), long_strings))
# Paths that merge into one state set before they close (the drawn
# formulas rarely nest a star in a capture).
@example(compile_regex("a*x{a*}a*"), "aaaa")
@example(union([compile_regex(".*x{a*}y{b*}.*")] * 2), "aabbab")
@example(compile_regex("x{(a|aa)*}"), "")
def test_cold_evaluator_matches_graph_reference(automaton, s):
    """``SpannerEvaluator(automaton, s)`` walks state sets on one-off
    tables; its tuples, counts and emptiness are the pruned ``A_G``'s."""
    evaluator = SpannerEvaluator(automaton, s)
    graph = evaluator.graph
    words = islice(evaluator.configuration_words(), WALK_PREFIX)
    want = [decode_configuration_word(w, graph.variables) for w in words]
    assert list(islice(evaluator, WALK_PREFIX)) == want
    for cap in (0, 1, 2, None):
        assert evaluator.count(cap) == graph.leveled.count_words(cap=cap)
    assert evaluator.is_empty() == graph.leveled.is_empty
    assert is_empty_on(automaton, s) == graph.leveled.is_empty


@st.composite
def non_functional_automata(draw) -> VSetAutomaton:
    """``v0`` bound on one union branch only, bound twice, or declared
    but never bound."""
    kind = draw(st.sampled_from(("one branch", "twice", "unbound")))
    bound = draw(_formula_over(("v0",), depth=1))
    free = draw(_formula_over((), depth=1))
    if kind == "one branch":
        return compile_regex(Union(bound, free), require_functional=False)
    if kind == "twice":
        return compile_regex(Concat(bound, bound), require_functional=False)
    return VSetAutomaton(compile_regex(free).nfa, {"v0"})


@settings(max_examples=40, deadline=None)
@given(non_functional_automata(), st.one_of(st.just(""), short_strings))
def test_cold_evaluator_raises_the_reference_error(automaton, s):
    """A non-functional automaton fails at construction, with the error
    the ``A_G`` construction raises."""
    with pytest.raises(NotFunctionalError) as reference:
        build_evaluation_graph(automaton, s)
    with pytest.raises(NotFunctionalError) as cold:
        SpannerEvaluator(automaton, s)
    assert str(cold.value) == str(reference.value)


# ---------------------------------------------------------------------------
# State-set evaluation across documents vs the A_G reference
# ---------------------------------------------------------------------------

#: A document stream: one spanner serves every string of it, so the
#: state-set memos its tables carry are reused from document to document.
document_streams = st.lists(long_strings, min_size=1, max_size=8)


def _cold_reference(automaton, s):
    """Radix-order prefix, capped counts and emptiness of the pruned
    ``A_G``."""
    graph = build_evaluation_graph(automaton, s)
    counts = {
        cap: graph.leveled.count_words(cap=cap) for cap in (0, 1, 2, None)
    }
    return _radix_prefix(graph), counts, graph.leveled.is_empty


@settings(max_examples=60, deadline=None)
@given(anywhere_formulas(), anywhere_formulas(), document_streams)
@example(MERGING[0][0], MERGING[1][0], [s for _, s in MERGING])
@example(MERGING[2][0], MERGING[1][0], [s for _, s in MERGING] * 2)
def test_state_sets_match_cold_reference_across_documents(f1, f2, docs):
    spanners = [CompiledSpanner(f1), CompiledSpanner(f2)]
    engine = FusedQuery(
        [("q0", spanners[0].tables), ("q1", spanners[1].tables)]
    ).materialize()
    for s in docs:
        fused = engine.streams(s)
        for spanner, stream in zip(spanners, fused):
            tuples, counts, empty = _cold_reference(spanner.automaton, s)
            assert list(islice(spanner.stream(s), WALK_PREFIX)) == tuples
            assert list(islice(stream, WALK_PREFIX)) == tuples
            for cap, want in counts.items():
                assert spanner.count(s, cap=cap) == want
            assert spanner.is_empty(s) == empty


@settings(max_examples=30, deadline=None)
@given(functional_formulas(), long_strings, long_strings)
def test_alternately_advanced_streams_match_cold_reference(formula, s1, s2):
    spanner = CompiledSpanner(formula)
    want = [_cold_reference(spanner.automaton, s)[0] for s in (s1, s2)]
    streams = [spanner.stream(s1), spanner.stream(s2)]
    got: list[list] = [[], []]
    live = [True, True]
    while any(live):
        for i, stream in enumerate(streams):
            if live[i] and len(got[i]) < WALK_PREFIX:
                nxt = next(stream, None)
                if nxt is None:
                    live[i] = False
                else:
                    got[i].append(nxt)
            else:
                live[i] = False
    assert got == want


#: Documents with characters no formula leaf reads and that are neither
#: ASCII letters nor digits, so evaluating them fills burst rows that
#: no compile-time build could have made.
diverse_strings = st.text(alphabet=ALPHABET + "0" + PAD + " ü€", max_size=12)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(functional_formulas(), anywhere_formulas(), padded_formulas()),
    st.lists(diverse_strings, min_size=1, max_size=4),
)
def test_artifact_bytes_do_not_depend_on_evaluated_documents(formula, docs):
    """The shipped, stored and fingerprinted artifact is the tables'
    pickle: evaluating documents fills only per-process caches."""
    spanner = CompiledSpanner(formula)
    before = pickle.dumps(spanner.tables, protocol=pickle.HIGHEST_PROTOCOL)
    for s in docs:
        list(islice(spanner.stream(s), WALK_PREFIX))
    after = pickle.dumps(spanner.tables, protocol=pickle.HIGHEST_PROTOCOL)
    assert after == before


# ---------------------------------------------------------------------------
# Equality queries: the fused product's levels vs three references
# ---------------------------------------------------------------------------

#: Capture bodies of single-group queries, and the more selective ones
#: of two-group queries (whose answers multiply across the groups).
EQ_BODIES = ("[ab]+", "a+", "b[ab]*", "[ab]*a")
EQ_SELECTIVE_BODIES = ("ab", "ba", "a+b", "b[ab]a")
#: Group sizes per shape, over the variables x, y, z, u.
EQ_SHAPES = ((2,), (3,), (2, 2))
#: The explicit ``A_eq`` has ``O(N^{k+2})`` states per group, so the
#: materializing reference runs on a prefix of the document this long.
EQ_MATERIALIZED_PREFIX = {(2,): 8, (3,): 5, (2, 2): 4}

equality_strings = st.text(alphabet=ALPHABET, max_size=14)


@st.composite
def equality_queries(draw):
    """``(shape, query)``: a regex CQ, or a union of two, with equalities.

    Every variable has one atom ``.*v{body}.*``.  The head is every
    variable, a proper subset of them, or empty (a boolean query).  The
    second disjunct of a union has the first one's groups or none.
    """
    shape = draw(st.sampled_from(EQ_SHAPES))
    groups = []
    variables = ""
    for k in shape:
        groups.append(tuple("xyzu"[len(variables) : len(variables) + k]))
        variables += "xyzu"[len(variables) : len(variables) + k]
    head_kind = draw(st.sampled_from(["full", "projected", "boolean"]))
    if head_kind == "full":
        head = list(variables)
    elif head_kind == "projected":
        head = sorted(draw(st.sets(
            st.sampled_from(variables), min_size=1, max_size=len(variables) - 1
        )))
    else:
        head = []
    bodies = EQ_BODIES if len(shape) == 1 else EQ_SELECTIVE_BODIES

    def cq(equalities) -> RegexCQ:
        atoms = [
            f".*{v}{{{draw(st.sampled_from(bodies))}}}.*" for v in variables
        ]
        return RegexCQ(head, atoms, equalities=equalities)

    first = cq(groups)
    if not draw(st.booleans()):
        return shape, first
    second = cq(groups if draw(st.booleans()) else [])
    return shape, RegexUCQ([first, second])


def _oracle_query(query, s: str) -> set:
    """A CQ/UCQ by definition: atom oracles, equal substrings, projection.

    Each atom binds one variable, so a disjunct's join is a product:
    per equality group the span choices with one common substring, per
    other variable its atom's spans, each projected onto the head.
    """
    cqs = query.disjuncts if isinstance(query, RegexUCQ) else (query,)
    out: set = set()
    for cq in cqs:
        spans: dict[str, list] = {}
        for atom in cq.regex_atoms:
            for mu in oracle_evaluate(atom.formula, s):
                for var in mu.variables:
                    spans.setdefault(var, []).append(mu[var])
        head = set(cq.head)
        parts = []
        grouped: set[str] = set()
        for eq in cq.merged_equalities():
            names = sorted(eq.variable_set)
            grouped |= set(names)
            by_value: dict[str, dict[str, list]] = {}
            for var in names:
                for span in spans.get(var, ()):
                    value = s[span.start - 1 : span.end - 1]
                    by_value.setdefault(value, {}).setdefault(var, []).append(
                        span
                    )
            part = set()
            for per_var in by_value.values():
                if len(per_var) == len(names):
                    for combo in cartesian_product(
                        *(per_var[var] for var in names)
                    ):
                        part.add(tuple(
                            (var, span)
                            for var, span in zip(names, combo)
                            if var in head
                        ))
            parts.append(part)
        for var in sorted(set(spans) - grouped):
            parts.append({
                ((var, span),) if var in head else () for span in spans[var]
            })
        if len(spans) < len(cq.body_variables):
            continue  # some atom never matches
        for combo in cartesian_product(*parts):
            out.add(SpanTuple([pair for part in combo for pair in part]))
    return out


@settings(max_examples=30, deadline=None)
@given(equality_queries(), equality_strings)
def test_equality_levels_match_references(shaped, s):
    """``stream``, ``count(cap)`` and ``is_empty`` of the fused levels.

    References: the compiled automaton (``compile_for``) through the
    cold ``A_G`` and the paper's radix enumerator; the explicit
    ``A_eq`` (``materialize_equalities=True``) on a prefix of ``s``;
    and the oracle, as a set.
    """
    shape, query = shaped
    fused = CompiledEvaluator(LRUCache(8))
    engine = fused.equality_runtime(query)
    tuples, counts, empty = _cold_reference(engine.compile_for(s), s)
    assert list(islice(engine.stream(s), WALK_PREFIX)) == tuples
    for cap, want in counts.items():
        assert engine.count(s, cap=cap) == want
    assert engine.is_empty(s) == empty
    assert list(islice(fused.stream(query, s), WALK_PREFIX)) == tuples
    assert set(engine.stream(s)) == _oracle_query(query, s)

    prefix = s[: EQ_MATERIALIZED_PREFIX[shape]]
    materializing = CompiledEvaluator(LRUCache(8), materialize_equalities=True)
    assert list(islice(engine.stream(prefix), WALK_PREFIX)) == list(
        islice(materializing.stream(query, prefix), WALK_PREFIX)
    )


@settings(max_examples=30, deadline=None)
@given(equality_queries(), padded_strings(max_size=24))
def test_padded_equality_walk_matches_radix_reference(shaped, s):
    """The equality levels jump the padding's silent stretches; a word
    still ends at its all-closed letter, in the compiled automaton's
    radix order (``compile_for`` expands each stretch again), and the
    answers are the oracle's."""
    _shape, query = shaped
    engine = CompiledEvaluator(LRUCache(8)).equality_runtime(query)
    want = _radix_prefix(build_evaluation_graph(engine.compile_for(s), s))
    got = list(islice(engine.stream(s), WALK_PREFIX))
    assert got == want
    _assert_counts(lambda cap: engine.count(s, cap=cap), got)
    assert engine.is_empty(s) == (not want)
    assert set(engine.stream(s)) == _oracle_query(query, s)


@settings(max_examples=20, deadline=None)
@given(equality_queries(), functional_formulas(), document_streams)
def test_fused_engine_equality_member_matches_references(shaped, formula, docs):
    """An equality member and a regex member fused in one engine."""
    _shape, query = shaped
    engine = CompiledEvaluator(LRUCache(8)).equality_runtime(query)
    spanner = CompiledSpanner(formula)
    fused = FusedQuery([("eq", engine), ("re", spanner.tables)]).materialize()
    for s in docs:
        s = s[:14]
        eq_stream, re_stream = fused.streams(s)
        want = _cold_reference(engine.compile_for(s), s)[0]
        assert list(islice(eq_stream, WALK_PREFIX)) == want
        want = _cold_reference(spanner.automaton, s)[0]
        assert list(islice(re_stream, WALK_PREFIX)) == want


# ---------------------------------------------------------------------------
# Algebra laws vs materialized relational semantics
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    functional_formulas(max_variables=1),
    functional_formulas(max_variables=1),
    tiny_strings,
)
def test_join_matches_relational_join(f1, f2, s):
    a1 = compile_regex(f1)
    a2 = compile_regex(f2)
    joined = join(a1, a2)
    assert is_vset_functional(joined)
    got = set(enumerate_tuples(joined, s))
    want = set(a1.evaluate(s).natural_join(a2.evaluate(s)))
    assert got == want


@settings(max_examples=30, deadline=None)
@given(functional_formulas(max_variables=2), tiny_strings)
def test_projection_matches_relational_projection(formula, s):
    automaton = compile_regex(formula)
    variables = sorted(automaton.variables)
    for keep_count in range(len(variables) + 1):
        keep = variables[:keep_count]
        projected = project(automaton, keep)
        got = set(enumerate_tuples(projected, s))
        want = set(automaton.evaluate(s).project(keep))
        assert got == want


@settings(max_examples=30, deadline=None)
@given(
    functional_formulas(max_variables=1),
    functional_formulas(max_variables=1),
    tiny_strings,
)
def test_union_matches_relational_union(f1, f2, s):
    a1 = compile_regex(f1)
    a2 = compile_regex(f2)
    if a1.variables != a2.variables:
        return  # union requires identical variable sets
    combined = union([a1, a2])
    got = set(enumerate_tuples(combined, s))
    want = set(a1.evaluate(s).union(a2.evaluate(s)))
    assert got == want


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet=ALPHABET, min_size=0, max_size=3))
def test_equality_automaton_complete_and_sound(s):
    automaton = equality_automaton(s, ("x", "y"))
    got = set(enumerate_tuples(automaton, s))
    brute = {
        SpanTuple({"x": a, "y": b})
        for a in Span.all_spans(s)
        for b in Span.all_spans(s)
        if a.extract(s) == b.extract(s)
    }
    assert got == brute


# ---------------------------------------------------------------------------
# Ref-word encode/decode round trip
# ---------------------------------------------------------------------------


@st.composite
def tuples_over(draw, s: str, variables: tuple[str, ...]):
    n = len(s)
    assignment = {}
    for var in variables:
        start = draw(st.integers(1, n + 1))
        end = draw(st.integers(start, n + 1))
        assignment[var] = Span(start, end)
    return SpanTuple(assignment)


@settings(max_examples=50, deadline=None)
@given(st.data(), st.text(alphabet=ALPHABET, min_size=0, max_size=5))
def test_refword_round_trip(data, s):
    mu = data.draw(tuples_over(s, ("x", "y")))
    refword = refword_from_tuple(mu, s)
    assert clr(refword) == s
    assert tuple_from_refword(refword, ("x", "y")) == mu


# ---------------------------------------------------------------------------
# Yannakakis vs generic join on random acyclic instances
# ---------------------------------------------------------------------------


@st.composite
def acyclic_instances(draw):
    """A random chain CQ R0(a0,a1) ⋈ R1(a1,a2) ⋈ ... with random rows."""
    length = draw(st.integers(2, 4))
    relations = {}
    edges = {}
    for i in range(length):
        schema = (f"a{i}", f"a{i+1}")
        rows = draw(
            st.sets(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                max_size=8,
            )
        )
        relations[f"R{i}"] = Relation(schema, rows)
        edges[f"R{i}"] = set(schema)
    output = draw(
        st.lists(
            st.sampled_from([f"a{i}" for i in range(length + 1)]),
            unique=True,
            max_size=3,
        )
    )
    return relations, Hypergraph(edges), tuple(output)


@settings(max_examples=40, deadline=None)
@given(acyclic_instances())
def test_yannakakis_matches_generic(instance):
    relations, hypergraph, output = instance
    gyo = hypergraph.gyo()
    assert gyo.acyclic
    fast = evaluate_acyclic(relations, gyo, output)
    slow = evaluate_generic(relations, output)
    assert fast == slow


# ---------------------------------------------------------------------------
# Functionality: syntactic test (Thm 2.4) vs semantic test (Thm 2.7)
# ---------------------------------------------------------------------------


@st.composite
def arbitrary_formulas(draw):
    """Formulas that may or may not be functional."""
    depth = draw(st.integers(0, 2))

    def build(d):
        if d <= 0:
            return draw(
                st.sampled_from(
                    [
                        CharClass(Chars("a")),
                        Epsilon(),
                        Capture("x", CharClass(Chars("a"))),
                        Capture("y", Epsilon()),
                    ]
                )
            )
        kind = draw(st.sampled_from(["concat", "union", "star", "capture"]))
        if kind == "concat":
            return Concat(build(d - 1), build(d - 1))
        if kind == "union":
            return Union(build(d - 1), build(d - 1))
        if kind == "star":
            return Star(build(d - 1))
        return Capture(draw(st.sampled_from(["x", "y", "z"])), build(d - 1))

    return build(depth)


@settings(max_examples=80, deadline=None)
@given(arbitrary_formulas())
def test_syntactic_and_semantic_functionality_agree(formula):
    syntactic = check_functional(formula).functional
    automaton = compile_regex(formula, require_functional=False)
    semantic = is_vset_functional(automaton)
    assert syntactic == semantic, f"disagreement on {formula}"
