"""Unit tests for spans, span tuples and span relations (§2.1)."""

import pickle
import random
from array import array

import pytest

from repro.enumeration.enumerator import event_tuples
from repro.errors import InvalidSpanError, SchemaError
from repro.runtime.backends.worker import unpack_tuples
from repro.spans import EMPTY_TUPLE, Span, SpanRelation, SpanTuple
from repro.vset.configurations import CLOSED, OPEN, WAITING


class TestSpan:
    def test_paper_example_2_1_substrings(self):
        s = "chocolate cookie"
        assert len(s) == 16
        assert Span(4, 6).extract(s) == "co"
        assert Span(11, 13).extract(s) == "co"
        # equal substrings, different spans
        assert Span(4, 6) != Span(11, 13)

    def test_paper_example_2_1_empty_spans(self):
        s = "chocolate cookie"
        assert Span(1, 1).extract(s) == ""
        assert Span(2, 2).extract(s) == ""
        assert Span(1, 1) != Span(2, 2)

    def test_whole_string_span(self):
        s = "chocolate cookie"
        assert Span.whole(s) == Span(1, 17)
        assert Span.whole(s).extract(s) == s

    def test_invalid_start(self):
        with pytest.raises(InvalidSpanError):
            Span(0, 1)

    def test_invalid_order(self):
        with pytest.raises(InvalidSpanError):
            Span(3, 2)

    def test_extract_out_of_range(self):
        with pytest.raises(InvalidSpanError):
            Span(1, 9).extract("abc")

    def test_length(self):
        assert len(Span(2, 5)) == 3
        assert len(Span(4, 4)) == 0
        assert Span(4, 4).is_empty()

    def test_contains(self):
        assert Span(1, 10).contains(Span(3, 5))
        assert Span(1, 10).contains(Span(1, 10))
        assert not Span(3, 5).contains(Span(1, 10))
        assert not Span(3, 5).contains(Span(4, 7))

    def test_overlaps(self):
        assert Span(1, 5).overlaps(Span(4, 8))
        assert not Span(1, 4).overlaps(Span(4, 8))
        assert not Span(2, 2).overlaps(Span(1, 5))  # empty span overlaps nothing

    def test_precedes(self):
        assert Span(1, 4).precedes(Span(4, 8))
        assert not Span(1, 5).precedes(Span(4, 8))

    def test_slice_round_trip(self):
        span = Span.from_slice(3, 7)
        assert span == Span(4, 8)
        assert span.to_slice() == (3, 7)

    def test_all_spans_count(self):
        # N=3 has (N+1)(N+2)/2 = 10 spans.
        assert len(list(Span.all_spans("abc"))) == 10

    def test_all_spans_sorted(self):
        spans = list(Span.all_spans("ab"))
        assert spans == sorted(spans)

    def test_ordering(self):
        assert Span(1, 2) < Span(1, 3) < Span(2, 2)

    def test_str(self):
        assert str(Span(2, 5)) == "[2, 5>"

    def test_fits(self):
        assert Span(1, 4).fits("abc")
        assert not Span(1, 5).fits("abc")


class TestSpanTuple:
    def test_mapping_protocol(self):
        t = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        assert t["x"] == Span(1, 2)
        assert set(t) == {"x", "y"}
        assert len(t) == 2

    def test_unknown_variable(self):
        t = SpanTuple({"x": Span(1, 2)})
        with pytest.raises(KeyError):
            t["z"]

    def test_equality_and_hash(self):
        a = SpanTuple({"x": Span(1, 2)})
        b = SpanTuple({"x": Span(1, 2)})
        assert a == b
        assert hash(a) == hash(b)
        assert a != SpanTuple({"x": Span(1, 3)})

    def test_equality_against_plain_mapping(self):
        assert SpanTuple({"x": Span(1, 2)}) == {"x": Span(1, 2)}

    def test_restrict(self):
        t = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        assert t.restrict(["x"]) == SpanTuple({"x": Span(1, 2)})

    def test_restrict_unknown(self):
        t = SpanTuple({"x": Span(1, 2)})
        with pytest.raises(SchemaError):
            t.restrict(["nope"])

    def test_compatible_and_merge(self):
        a = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        b = SpanTuple({"y": Span(2, 3), "z": Span(1, 1)})
        assert a.compatible(b)
        merged = a.merge(b)
        assert merged.variables == {"x", "y", "z"}

    def test_incompatible_merge(self):
        a = SpanTuple({"x": Span(1, 2)})
        b = SpanTuple({"x": Span(1, 3)})
        assert not a.compatible(b)
        with pytest.raises(SchemaError):
            a.merge(b)

    def test_strings(self):
        t = SpanTuple({"x": Span(1, 3)})
        assert t.strings("abc") == {"x": "ab"}

    def test_rejects_non_span(self):
        with pytest.raises(TypeError):
            SpanTuple({"x": (1, 2)})

    def test_empty_tuple_constant(self):
        assert len(EMPTY_TUPLE) == 0
        assert EMPTY_TUPLE.variables == frozenset()


def _decoded(pairs) -> SpanTuple:
    """The tuple the enumerator's decoder for ``pairs``' names builds
    from the event list of the word that selects ``pairs``' spans."""
    names = tuple(name for name, _ in pairs)
    events = []
    for slot in range(max((sp.end for _, sp in pairs), default=1)):
        letter = tuple(
            WAITING if slot + 1 < sp.start else OPEN if slot + 1 < sp.end
            else CLOSED
            for _, sp in pairs
        )
        if not events or events[-1][1] != letter:
            events.append((slot, letter))
    return event_tuples(names)(events)


def _unpacked(pairs) -> SpanTuple:
    """The tuple the driver rebuilds from ``pairs``' shipped offsets."""
    names = tuple(name for name, _ in pairs)
    offsets = [x for _, sp in pairs for x in (sp.start, sp.end)]
    (doc,) = unpack_tuples(names, array("q", offsets), array("q", [1]))
    (mu,) = doc
    return mu


class TestDecoderConstructors:
    """The enumerator's decoders and the driver's unpacking build spans
    and tuples inline, through private constructors; what they build
    must be indistinguishable from the public constructors' output, and
    a bad span must still raise."""

    def _pairs(self):
        return (("x", Span(1, 4)), ("y", Span(2, 2)), ("z", Span(5, 9)))

    def test_span_matches_public_constructor(self):
        for start, end in ((1, 1), (1, 4), (7, 9)):
            public = Span(start, end)
            for build in (_decoded, _unpacked):
                private = build((("x", public),))["x"]
                assert type(private) is Span
                assert private == public
                assert hash(private) == hash(public)
                assert not private < public and not public < private
                assert pickle.dumps(private) == pickle.dumps(public)
                assert pickle.loads(pickle.dumps(private)) == public

    @pytest.mark.parametrize(
        "start, end", [(0, 1), (0, 0), (3, 2), (-1, 4)]
    )
    def test_span_keeps_its_check(self, start, end):
        with pytest.raises(InvalidSpanError) as public:
            Span(start, end)
        for names, offsets in (
            (("x",), [start, end]), (("x", "y"), [1, 2, start, end])
        ):
            with pytest.raises(InvalidSpanError) as private:
                unpack_tuples(names, array("q", offsets), array("q", [1]))
            assert str(private.value) == str(public.value)

    def test_span_stays_frozen(self):
        for build in (_decoded, _unpacked):
            span = build((("x", Span(1, 2)),))["x"]
            with pytest.raises(AttributeError):
                span.start = 5  # type: ignore[misc]

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_span_tuple_matches_public_constructor(self, n):
        pairs = self._pairs()[:n]
        public = SpanTuple(dict(reversed(pairs)))
        for build in (_decoded, _unpacked):
            private = build(pairs)
            assert type(private) is SpanTuple
            assert private == public and public == private
            assert hash(private) == hash(public)
            assert list(private.items()) == list(public.items())
            assert repr(private) == repr(public)
            assert pickle.dumps(private) == pickle.dumps(public)
            assert pickle.loads(pickle.dumps(private)) == public
            assert {private, public} == {public}

    def test_decoded_tuples_match_public_constructor(self):
        from repro.runtime import CompiledSpanner

        spanner = CompiledSpanner(".*x{a+}.*y{b*}.*")
        for mu in spanner.stream("aab-ab"):
            public = SpanTuple(
                {name: Span(sp.start, sp.end) for name, sp in mu.items()}
            )
            assert mu == public
            assert pickle.dumps(mu) == pickle.dumps(public)


#: ``SpanTuple({"y": Span(2, 2), "x": Span(1, 4)})`` pickled (protocols 2
#: and 4) by the build whose tuples held ``(name, Span)`` pairs.
PARENT_PICKLES = {
    2: (
        b"\x80\x02crepro.spans\nSpanTuple\nq\x00)\x81q\x01N}q\x02X\x06\x00"
        b"\x00\x00_itemsq\x03X\x01\x00\x00\x00xq\x04crepro.spans\nSpan\nq"
        b"\x05)\x81q\x06]q\x07(K\x01K\x04eb\x86q\x08X\x01\x00\x00\x00yq\th"
        b"\x05)\x81q\n]q\x0b(K\x02K\x02eb\x86q\x0c\x86q\rs\x86q\x0eb."
    ),
    4: (
        b"\x80\x04\x95c\x00\x00\x00\x00\x00\x00\x00\x8c\x0brepro.spans\x94"
        b"\x8c\tSpanTuple\x94\x93\x94)\x81\x94N}\x94\x8c\x06_items\x94\x8c"
        b"\x01x\x94h\x00\x8c\x04Span\x94\x93\x94)\x81\x94]\x94(K\x01K\x04eb"
        b"\x86\x94\x8c\x01y\x94h\x08)\x81\x94]\x94(K\x02K\x02eb\x86\x94\x86"
        b"\x94s\x86\x94b."
    ),
}


def _old_order_key(mu: SpanTuple) -> tuple:
    """The order of the earlier tuples: their sorted ``(name, Span)``
    pairs."""
    return tuple(sorted((name, mu[name]) for name in mu))


class TestPositionTuples:
    """A :class:`SpanTuple` holds its names and span positions and builds
    a :class:`Span` when one is read; everything else behaves as when it
    held ``(name, Span)`` pairs."""

    def test_parent_pickles_load(self):
        expected = SpanTuple({"x": Span(1, 4), "y": Span(2, 2)})
        for protocol, data in PARENT_PICKLES.items():
            loaded = pickle.loads(data)
            assert type(loaded) is SpanTuple
            assert loaded == expected and hash(loaded) == hash(expected)
            assert loaded["x"] == Span(1, 4) and loaded["y"] == Span(2, 2)
            assert pickle.dumps(expected, protocol=protocol) == data

    def test_pickles_do_not_depend_on_shared_names(self):
        names = ("x", "y")
        rows = [(1, 4, 2, 2), (1, 4, 3, 5), (2, 3, 2, 2)]
        unpacked = unpack_tuples(
            names, array("q", [x for row in rows for x in row]),
            array("q", [len(rows)]),
        )[0]
        assert all(mu._names is names for mu in unpacked)
        public = [
            SpanTuple({"y": Span(c, d), "x": Span(a, b)})
            for a, b, c, d in rows
        ]
        assert len({id(mu._names) for mu in public}) == len(rows)
        for protocol in (2, 4, 5):
            assert pickle.dumps(unpacked, protocol=protocol) == pickle.dumps(
                public, protocol=protocol
            )
        assert pickle.loads(pickle.dumps(unpacked)) == public

    def test_spans_are_built_when_read(self):
        mu = SpanTuple({"x": Span(1, 4)})
        first, second = mu["x"], mu["x"]
        assert first == second == Span(1, 4)
        assert first is not second
        assert type(first) is Span

    def test_mapping_behaviour(self):
        mu = SpanTuple({"z": Span(5, 9), "x": Span(1, 4), "y": Span(2, 2)})
        with pytest.raises(KeyError) as missing:
            mu["w"]
        assert missing.value.args == ("w",)
        assert "x" in mu and "w" not in mu
        assert mu.get("w") is None and mu.get("y") == Span(2, 2)
        assert list(mu) == ["x", "y", "z"]
        assert list(mu.items()) == [
            ("x", Span(1, 4)), ("y", Span(2, 2)), ("z", Span(5, 9))
        ]
        assert list(mu.values()) == [Span(1, 4), Span(2, 2), Span(5, 9)]
        plain = {"y": Span(2, 2), "z": Span(5, 9), "x": Span(1, 4)}
        assert mu == plain and plain == mu
        assert mu != {**plain, "z": Span(5, 8)}
        assert mu != {"x": Span(1, 4)}
        assert dict(mu) == plain

    def test_hash_agrees_with_equality(self):
        rng = random.Random(3)
        seen: dict[SpanTuple, SpanTuple] = {}
        for _ in range(300):
            names = rng.sample("xyz", rng.randint(0, 2))
            mu = SpanTuple({
                name: Span(a, a + rng.randint(0, 1))
                for name in names
                for a in (rng.randint(1, 2),)
            })
            twin = _unpacked(tuple((name, mu[name]) for name in mu))
            assert twin == mu and hash(twin) == hash(mu)
            other = seen.setdefault(mu, mu)
            assert other == mu and hash(other) == hash(mu)

    def test_order_agrees_with_pair_order(self):
        rng = random.Random(5)
        tuples = []
        for _ in range(200):
            names = sorted(rng.sample("abcd", rng.randint(0, 3)))
            pairs = []
            for name in names:
                start = rng.randint(1, 3)
                pairs.append((name, Span(start, start + rng.randint(0, 2))))
            tuples.append(
                SpanTuple(dict(pairs)) if rng.random() < 0.5
                else _unpacked(tuple(pairs))
            )
        for a in tuples:
            for b in tuples:
                assert (a < b) == (_old_order_key(a) < _old_order_key(b))
                assert (a > b) == (_old_order_key(a) > _old_order_key(b))
        assert sorted(tuples) == sorted(tuples, key=_old_order_key)

    def test_algebra_reads_positions(self):
        a = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        b = _unpacked((("y", Span(2, 3)), ("z", Span(1, 1))))
        c = _unpacked((("y", Span(2, 4)), ("z", Span(1, 1))))
        assert a.compatible(b) and b.compatible(a)
        assert not a.compatible(c) and not c.compatible(a)
        merged = a.merge(b)
        assert merged == SpanTuple(
            {"x": Span(1, 2), "y": Span(2, 3), "z": Span(1, 1)}
        )
        assert merged.restrict(["z", "x"]) == SpanTuple(
            {"x": Span(1, 2), "z": Span(1, 1)}
        )
        assert repr(merged) == "{x=[1, 2>, y=[2, 3>, z=[1, 1>}"
        assert merged.strings("abc") == {"x": "a", "y": "b", "z": ""}
        with pytest.raises(InvalidSpanError):
            SpanTuple({"x": Span(1, 5)}).strings("abc")


class TestSpanRelation:
    def _rel(self, *pairs):
        return SpanRelation(
            ["x"], [SpanTuple({"x": Span(i, j)}) for i, j in pairs]
        )

    def test_schema_enforced(self):
        with pytest.raises(SchemaError):
            SpanRelation(["x"], [SpanTuple({"y": Span(1, 1)})])

    def test_boolean_semantics(self):
        false = SpanRelation([], [])
        true = SpanRelation([], [EMPTY_TUPLE])
        assert false.is_boolean and true.is_boolean
        assert not false
        assert true

    def test_project(self):
        rel = SpanRelation(
            ["x", "y"],
            [SpanTuple({"x": Span(1, 2), "y": Span(i, i)}) for i in (1, 2, 3)],
        )
        projected = rel.project(["x"])
        assert projected.variables == {"x"}
        assert len(projected) == 1  # duplicates collapse

    def test_project_unknown(self):
        with pytest.raises(SchemaError):
            self._rel((1, 1)).project(["q"])

    def test_union(self):
        a = self._rel((1, 1), (1, 2))
        b = self._rel((1, 2), (2, 2))
        assert len(a.union(b)) == 3

    def test_union_schema_mismatch(self):
        with pytest.raises(SchemaError):
            self._rel((1, 1)).union(SpanRelation(["y"]))

    def test_natural_join_shared(self):
        a = SpanRelation(
            ["x", "y"], [SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})]
        )
        b = SpanRelation(
            ["y", "z"],
            [
                SpanTuple({"y": Span(2, 3), "z": Span(1, 1)}),
                SpanTuple({"y": Span(1, 3), "z": Span(1, 1)}),
            ],
        )
        joined = a.natural_join(b)
        assert len(joined) == 1
        assert joined.variables == {"x", "y", "z"}

    def test_natural_join_disjoint_is_product(self):
        a = self._rel((1, 1), (2, 2))
        b = SpanRelation(["y"], [SpanTuple({"y": Span(1, 2)})])
        assert len(a.natural_join(b)) == 2

    def test_select_string_equality(self):
        s = "abab"
        rel = SpanRelation(
            ["x", "y"],
            [
                SpanTuple({"x": Span(1, 3), "y": Span(3, 5)}),  # ab == ab
                SpanTuple({"x": Span(1, 3), "y": Span(2, 4)}),  # ab != ba
            ],
        )
        kept = rel.select_string_equality(s, ["x", "y"])
        assert len(kept) == 1

    def test_select_string_equality_single_var_noop(self):
        rel = self._rel((1, 1))
        assert rel.select_string_equality("a", ["x"]) == rel

    def test_difference(self):
        a = self._rel((1, 1), (1, 2))
        b = self._rel((1, 2))
        assert len(a.difference(b)) == 1

    def test_sorted_deterministic(self):
        rel = self._rel((2, 2), (1, 1), (1, 2))
        assert rel.sorted() == sorted(rel.sorted())
