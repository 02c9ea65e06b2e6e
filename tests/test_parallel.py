"""Tests for multiprocess corpus sharding (``ParallelSpanner``).

The contract: whatever the worker count, chunking or start method, the
parallel engine yields **exactly** the serial ``CompiledSpanner``
output — same tuples, same radix order, same per-document grouping, in
input order — and ``workers=1`` never touches :mod:`multiprocessing`.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.runtime import CompiledSpanner, ParallelSpanner
from repro.vset import compile_regex, join

FORMULA = "(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)"

DOCS = [
    "say hi ho",
    "",
    "a1bc2",
    "UPPER lower",
    "zzz",
    "the quick brown fox",
    "no-match-HERE-404",
    "ab cd ab",
] * 4  # 32 docs: several chunks at chunk_size 3


@pytest.fixture(scope="module")
def serial_output():
    spanner = CompiledSpanner(FORMULA)
    return list(spanner.evaluate_many(DOCS))


class TestParallelMatchesSerial:
    def test_two_workers_identical_output(self, serial_output):
        engine = ParallelSpanner(FORMULA, workers=2, chunk_size=3)
        assert list(engine.evaluate_many(DOCS)) == serial_output

    def test_chunk_boundaries_do_not_matter(self, serial_output):
        for chunk_size in (1, 5, 100):
            engine = ParallelSpanner(FORMULA, workers=2, chunk_size=chunk_size)
            assert list(engine.evaluate_many(DOCS)) == serial_output

    def test_more_workers_than_documents(self):
        engine = ParallelSpanner("a*x{a*}a*", workers=4, chunk_size=1)
        docs = ["a", "aa"]
        serial = list(CompiledSpanner("a*x{a*}a*").evaluate_many(docs))
        assert list(engine.evaluate_many(docs)) == serial

    def test_joined_marker_set_automaton(self):
        joined = join(compile_regex(".*x{a+}.*"), compile_regex(".*y{b+}.*"))
        docs = ["abab", "aabb", "ba", "aaa", "bbbb"] * 3
        serial = list(CompiledSpanner(joined).evaluate_many(docs))
        engine = ParallelSpanner(joined, workers=2, chunk_size=2)
        assert list(engine.evaluate_many(docs)) == serial

    def test_limit_caps_per_document(self, serial_output):
        engine = ParallelSpanner(FORMULA, workers=2, chunk_size=3)
        capped = list(engine.evaluate_many(DOCS, limit=2))
        assert capped == [per_doc[:2] for per_doc in serial_output]
        # workers=1 fallback honors the same cap.
        serial_engine = ParallelSpanner(FORMULA, workers=1)
        assert list(serial_engine.evaluate_many(DOCS, limit=2)) == capped

    def test_count_many(self):
        engine = ParallelSpanner("a*x{a*}a*", workers=2, chunk_size=2)
        docs = ["", "a", "aa", "aaa", "b"] * 2
        serial = list(CompiledSpanner("a*x{a*}a*").count_many(docs))
        assert list(engine.count_many(docs)) == serial
        capped = list(engine.count_many(docs, cap=3))
        assert capped == [min(c, 3) for c in serial]

    def test_spawn_start_method(self, serial_output):
        engine = ParallelSpanner(
            FORMULA, workers=2, chunk_size=8, mp_context="spawn"
        )
        assert list(engine.evaluate_many(DOCS[:16])) == serial_output[:16]

    def test_persistent_pool_context_manager(self, serial_output):
        with ParallelSpanner(FORMULA, workers=2, chunk_size=4) as engine:
            assert engine._pool is not None
            first = list(engine.evaluate_many(DOCS))
            second = list(engine.evaluate_many(DOCS))
        assert first == serial_output and second == serial_output
        assert engine._pool is None  # closed on exit


class TestSerialFallback:
    def test_workers_one_never_touches_multiprocessing(
        self, serial_output, monkeypatch
    ):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        engine = ParallelSpanner(FORMULA, workers=1)
        assert list(engine.evaluate_many(DOCS)) == serial_output
        assert list(engine.count_many(DOCS[:4])) == [
            len(t) for t in serial_output[:4]
        ]

    def test_empty_corpus_creates_no_pool(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("empty corpus must not create a pool")

        engine = ParallelSpanner(FORMULA, workers=2)
        monkeypatch.setattr(engine, "_make_pool", boom)
        assert list(engine.evaluate_many([])) == []
        assert list(engine.evaluate_many(iter(()))) == []


class TestTransportModes:
    """pipe / shm / auto must be byte-interchangeable."""

    @pytest.mark.parametrize("mode", ["pipe", "shm", "auto"])
    def test_transport_matches_serial(self, serial_output, mode):
        from repro.runtime.transport import shm_available

        if mode == "shm" and not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        engine = ParallelSpanner(
            FORMULA, workers=2, chunk_size=3, transport=mode
        )
        assert list(engine.evaluate_many(DOCS)) == serial_output

    def test_auto_negotiates_per_chunk(self, serial_output):
        from repro.runtime.transport import shm_available

        if not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        # A tiny threshold forces every chunk through shared memory; a
        # huge one forces every chunk onto the pipe — identical output
        # either way.
        for threshold in (1, 10**9):
            engine = ParallelSpanner(
                FORMULA, workers=2, chunk_size=3,
                transport="auto", shm_threshold=threshold,
            )
            assert list(engine.evaluate_many(DOCS)) == serial_output

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ParallelSpanner(FORMULA, workers=2, transport="carrier-pigeon")

    def test_forced_shm_raises_where_unavailable(self, monkeypatch):
        from repro.runtime import transport as transport_module
        from repro.runtime.transport import TransportUnavailableError

        monkeypatch.setattr(transport_module, "shm_available", lambda: False)
        # The platform check runs when the session starts its fleet.
        engine = ParallelSpanner(FORMULA, workers=2, transport="shm")
        with pytest.raises(TransportUnavailableError):
            list(engine.evaluate_many(DOCS))

    def test_auto_falls_back_where_unavailable(self, serial_output,
                                               monkeypatch):
        # Simulate a platform without POSIX shm: auto must silently
        # ride the pipe and still match serial output exactly.
        from repro.runtime import transport as transport_module

        monkeypatch.setattr(transport_module, "shm_available", lambda: False)
        engine = ParallelSpanner(
            FORMULA, workers=2, chunk_size=3, transport="auto"
        )
        with engine:
            assert engine._pool._doc_transport is None
            assert list(engine.evaluate_many(DOCS)) == serial_output


class TestAbandonedStream:
    """Breaking out of a streaming generator must not poison the session."""

    def test_break_then_reuse_persistent_session(self, serial_output):
        # Regression: an abandoned evaluate_many on a persistent fleet
        # used to leave its pending chunk futures in flight; the next
        # call could then observe stale interleavings or exhaust
        # max_pending.  The generator's finally now cancels them.
        with ParallelSpanner(
            FORMULA, workers=2, chunk_size=1, max_pending=2
        ) as engine:
            for _ in range(3):  # break repeatedly: leaks would pile up
                stream = engine.evaluate_many(iter(DOCS))
                assert next(stream) == serial_output[0]
                stream.close()  # consumer breaks out mid-iteration
            # The session keeps serving, full batch, correct and
            # in-order, without deadlocking against max_pending.
            assert list(engine.evaluate_many(DOCS)) == serial_output
            # And the fleet drains to quiet: no unresolved tasks linger.
            import time as _time

            deadline = _time.time() + 10
            while _time.time() < deadline and engine._pool._tasks:
                _time.sleep(0.02)
            assert not engine._pool._tasks

    def test_break_with_shm_transport_leaves_no_segments(self):
        from repro.runtime.transport import shm_available

        if not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        # Big documents (real segments) with exactly one match each,
        # so evaluation stays cheap and the test exercises transport.
        big_docs = [f"{'QQ ' * 1300}hi{i % 7}" for i in range(8)]
        serial = list(CompiledSpanner(FORMULA).evaluate_many(big_docs))
        with ParallelSpanner(
            FORMULA, workers=2, chunk_size=2, transport="shm"
        ) as engine:
            stream = engine.evaluate_many(iter(big_docs))
            next(stream)
            stream.close()
            assert list(engine.evaluate_many(big_docs)) == serial
        import glob
        import os

        if os.path.isdir("/dev/shm"):
            assert not glob.glob("/dev/shm/sjdoc-*")


class TestEncoding:
    """The encoding knob must reach every read site (satellite bugfix)."""

    def test_latin1_corpus_file_parallel_and_serial(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_bytes(b"ab caf\xe9 code=77 zz")
        expected_doc = "ab café code=77 zz"
        serial = list(CompiledSpanner(FORMULA).stream(expected_doc))
        for workers in (1, 2):
            engine = ParallelSpanner(
                FORMULA, workers=workers, encoding="latin-1"
            )
            [answers] = list(engine.evaluate_files([str(path)]))
            assert answers == serial

    def test_strict_default_still_raises(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_bytes(b"caf\xe9")
        engine = ParallelSpanner(FORMULA, workers=2, chunk_size=1)
        with pytest.raises(UnicodeDecodeError):
            list(engine.evaluate_files([str(path)]))

    def test_errors_replace_softens(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_bytes(b"hi \xff ho")
        engine = ParallelSpanner(FORMULA, workers=2, errors="replace")
        [answers] = list(engine.evaluate_files([str(path)]))
        serial = list(CompiledSpanner(FORMULA).stream("hi � ho"))
        assert answers == serial


class TestBackpressure:
    def test_input_read_ahead_is_bounded(self):
        # The dispatch loop must not slurp the whole (possibly
        # unbounded) input iterable: with chunk_size=1, max_pending=2,
        # the first result can be consumed while most of the input is
        # still unread.
        pulled = []

        def docs():
            for i in range(100):
                pulled.append(i)
                yield "a"

        engine = ParallelSpanner(
            "a*x{a*}a*", workers=2, chunk_size=1, max_pending=2
        )
        stream = engine.evaluate_many(docs())
        next(stream)
        assert len(pulled) <= 8, f"read {len(pulled)} docs ahead of one result"
        stream.close()  # abandon mid-stream: pool must tear down cleanly

    def test_results_arrive_lazily_in_order(self):
        engine = ParallelSpanner("a*x{a*}a*", workers=2, chunk_size=2)
        docs = ["a" * i for i in range(8)]
        serial = list(CompiledSpanner("a*x{a*}a*").evaluate_many(docs))
        stream = engine.evaluate_many(docs)
        got = [next(stream) for _ in range(3)]
        assert got == serial[:3]
        assert list(stream) == serial[3:]


class TestValidation:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelSpanner(FORMULA, workers=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelSpanner(FORMULA, chunk_size=0)

    def test_invalid_max_pending(self):
        with pytest.raises(ValueError):
            ParallelSpanner(FORMULA, workers=2, max_pending=0)

    def test_wraps_existing_compiled_spanner(self):
        spanner = CompiledSpanner(FORMULA)
        engine = ParallelSpanner(spanner, workers=1)
        assert engine.spanner is spanner
        assert engine.variables == spanner.variables

    def test_repr(self):
        engine = ParallelSpanner(FORMULA, workers=2)
        assert "workers=2" in repr(engine)


class TestFileDispatch:
    """``evaluate_files``: paths in, worker-side reads, tuples out."""

    @pytest.fixture()
    def corpus_files(self, tmp_path):
        paths = []
        for i, doc in enumerate(DOCS[:10]):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(doc, encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_matches_in_memory_evaluation(self, corpus_files, serial_output):
        with ParallelSpanner(FORMULA, workers=2, chunk_size=3) as engine:
            from_files = list(engine.evaluate_files(corpus_files))
        assert from_files == serial_output[:10]

    def test_serial_fallback_and_limit(self, corpus_files, serial_output):
        engine = ParallelSpanner(FORMULA, workers=1)
        capped = list(engine.evaluate_files(corpus_files, limit=1))
        assert capped == [doc[:1] for doc in serial_output[:10]]

    def test_worker_limit(self, corpus_files, serial_output):
        with ParallelSpanner(FORMULA, workers=2, chunk_size=2) as engine:
            capped = list(engine.evaluate_files(corpus_files, limit=2))
        assert capped == [doc[:2] for doc in serial_output[:10]]

    def test_missing_file_raises(self, corpus_files):
        with ParallelSpanner(FORMULA, workers=2, chunk_size=3) as engine:
            with pytest.raises(OSError):
                list(engine.evaluate_files(corpus_files + ["/nonexistent/x"]))
