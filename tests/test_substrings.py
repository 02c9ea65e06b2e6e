"""Tests for the substring index."""

from __future__ import annotations

import random
from itertools import product as cartesian_product

import pytest
from hypothesis import given, settings, strategies as st

from repro.spans import Span
from repro.text import SubstringIndex, repeats_text
from repro.vset.equality import equal_span_choices

STRINGS = [
    "",
    "a",
    "ab",
    "aaaa",
    "abab",
    "mississippi",
    repeats_text(16, seed=3),
    repeats_text(14, seed=9, alphabet="abc"),
    repeats_text(12, seed=1, alphabet="abcdefgh", plant=None),
]


def naive_buckets(s: str, length: int) -> list[list[int]]:
    table: dict[str, list[int]] = {}
    for start in range(1, len(s) + 2 - length):
        table.setdefault(s[start - 1 : start - 1 + length], []).append(start)
    return list(table.values())


def class_buckets(index: SubstringIndex, length: int) -> list[list[int]]:
    """``classes(length)``'s start lists, in representative order."""
    reps, starts = index.classes(length)
    return [starts[p] for p in range(1, len(reps)) if reps[p] == p]


class TestBuckets:
    @pytest.mark.parametrize("s", STRINGS)
    def test_buckets_match_naive_for_every_length(self, s):
        index = SubstringIndex(s)
        for length in range(0, len(s) + 1):
            assert class_buckets(index, length) == naive_buckets(s, length)

    def test_bucket_order_is_first_occurrence_order(self):
        # "ab" first occurs at 1, "ba" at 2, "bb" at 3: representatives
        # are first occurrences, so listing classes by representative
        # is the slice grouping's first-occurrence order.
        index = SubstringIndex("abba" + "ab")
        assert class_buckets(index, 2) == [[1, 5], [2], [3], [4]]
        assert class_buckets(index, 2) == naive_buckets("abbaab", 2)

    def test_length_zero_is_one_class(self):
        index = SubstringIndex("abc")
        assert class_buckets(index, 0) == [[1, 2, 3, 4]]


class TestQueries:
    @pytest.mark.parametrize("s", [s for s in STRINGS if s])
    def test_equal_matches_direct_comparison(self, s):
        index = SubstringIndex(s)
        n = len(s)
        for length in range(0, n + 1):
            for p in range(1, n + 2 - length):
                for q in range(1, n + 2 - length):
                    expected = (
                        s[p - 1 : p - 1 + length] == s[q - 1 : q - 1 + length]
                    )
                    assert index.equal(p, q, length) == expected

    def test_class_rep_is_first_occurrence(self):
        s = "abcabc"
        index = SubstringIndex(s)
        assert index.class_rep(4, 3) == 1  # "abc" at 4 reps to 1
        assert index.class_rep(1, 3) == 1
        assert index.occurrences(4, 3) == [1, 4]

    def test_first_occurrence_at_or_after(self):
        s = "abcabcabc"
        index = SubstringIndex(s)
        assert index.first_occurrence_at_or_after(1, 3, 1) == 1
        assert index.first_occurrence_at_or_after(1, 3, 2) == 4
        assert index.first_occurrence_at_or_after(1, 3, 5) == 7
        assert index.first_occurrence_at_or_after(1, 3, 8) is None


class TestClassArrays:
    """The class-id arrays answer exactly what slice equality defines."""

    @staticmethod
    def random_strings() -> list[str]:
        rng = random.Random(11)
        out = ["", "a", "aaaaaaa"]
        for alphabet in ("ab", "abc", "abcdefgh"):
            for length in (2, 7, 15):
                out.append("".join(rng.choice(alphabet) for _ in range(length)))
        return out

    def test_queries_match_hash_pair_definitions(self):
        for s in self.random_strings():
            index = SubstringIndex(s)
            n = len(s)
            for length in range(0, n + 1):
                starts = range(1, n + 2 - length)
                for p in starts:
                    value = s[p - 1 : p - 1 + length]
                    same = [
                        q for q in starts if s[q - 1 : q - 1 + length] == value
                    ]
                    assert index.class_rep(p, length) == same[0], (s, p, length)
                    assert index.occurrences(p, length) == same
                    for q in starts:
                        assert index.equal(p, q, length) == (q in same)
                    for min_start in range(0, n + 3):
                        later = [q for q in same if q >= min_start]
                        assert index.first_occurrence_at_or_after(
                            p, length, min_start
                        ) == (later[0] if later else None)

    def test_arrays_agree_with_the_buckets(self):
        index = SubstringIndex("abcab")
        reps, starts = index.classes(2)
        assert reps[1:] == [1, 2, 3, 1]
        assert starts[1] == [1, 4] and starts[4] is None
        assert [starts[1], starts[2], starts[3]] == naive_buckets("abcab", 2)


def naive_classes(s: str, length: int) -> tuple[list[int], list]:
    """``classes(length)`` keyed on the substrings themselves."""
    size = len(s) + 2 - length
    reps = [0] * size
    starts: list = [None] * size
    first: dict[str, int] = {}
    for p in range(1, size):
        rep = first.setdefault(s[p - 1 : p - 1 + length], p)
        reps[p] = rep
        if rep == p:
            starts[p] = [p]
        else:
            starts[rep].append(p)
    return reps, starts


class TestExactClasses:
    """``classes(L)`` is derived from shorter lengths' class ids, with no
    hashing: it must equal a slice-keyed reference for every length,
    whatever order the lengths are asked in."""

    @staticmethod
    def strings() -> list[str]:
        rng = random.Random(30)
        out = list(STRINGS) + ["é", "ßßß", "日本日本語日本"]
        for alphabet in ("ab", "aé", "αβγ", "a\x00b", "日本語🙂"):
            for length in (1, 5, 16, 33):
                out.append("".join(rng.choice(alphabet) for _ in range(length)))
        # E10-shaped documents: 32 and 64 characters over a-h, a planted
        # repeat (the equality-cq and E10f shape).
        out += [
            repeats_text(n, seed=seed, alphabet="abcdefgh", plant="abc")
            for n in (32, 64)
            for seed in range(4)
        ]
        return out

    def test_every_length_matches_slices(self):
        for s in self.strings():
            index = SubstringIndex(s)
            for length in range(len(s) + 3):
                assert index.classes(length) == naive_classes(s, length), (
                    s, length,
                )

    def test_any_request_order_matches_slices(self):
        rng = random.Random(7)
        for s in self.strings():
            lengths = list(range(len(s) + 2))
            rng.shuffle(lengths)
            index = SubstringIndex(s)
            for length in lengths:
                assert index.classes(length) == naive_classes(s, length), (
                    s, length,
                )


class TestChoiceEnumeration:
    def naive_choices(self, s: str, k: int):
        n = len(s)
        for length in range(0, n + 1):
            buckets: dict[str, list[int]] = {}
            for start in range(1, n + 2 - length):
                buckets.setdefault(
                    s[start - 1 : start - 1 + length], []
                ).append(start)
            for starts in buckets.values():
                spans = [Span(p, p + length) for p in starts]
                yield from cartesian_product(spans, repeat=k)

    @pytest.mark.parametrize("s", STRINGS[:7])
    @pytest.mark.parametrize("k", [2, 3])
    def test_equal_span_choices_identical_to_naive(self, s, k):
        assert list(equal_span_choices(s, k)) == list(
            self.naive_choices(s, k)
        )


def choices_from(buckets, n: int, k: int):
    """Every ``k``-tuple of equal spans, one bucket function per length."""
    for length in range(0, n + 1):
        for starts in buckets(length):
            spans = [Span(p, p + length) for p in starts]
            yield from cartesian_product(spans, repeat=k)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abé日", max_size=12))
def test_index_and_reference_agree_with_slices(s):
    """Production classes, the reference ``A_eq`` choices and the
    slice-keyed definition agree exactly, lists and order alike."""
    index = SubstringIndex(s)
    n = len(s)
    for length in range(n + 2):
        assert class_buckets(index, length) == naive_buckets(s, length)
    for k in (1, 2, 3):
        reference = list(equal_span_choices(s, k))
        assert reference == list(
            choices_from(lambda length: naive_buckets(s, length), n, k)
        )
        assert reference == list(
            choices_from(lambda length: class_buckets(index, length), n, k)
        )
