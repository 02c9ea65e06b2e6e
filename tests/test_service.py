"""Tests for the long-lived serving fleet (``SpannerService``).

The contract: a fleet serving any number of registered queries —
equality-free spanners and fused ``CompiledEqualityQuery`` workloads
alike — returns results **byte-identical and in-order** versus the
serial runtime, whatever the worker count, chunking, recycling
(``max_tasks_per_worker``), crash/re-dispatch history or front-end
(sync futures or asyncio); and the lifecycle is graceful: shutdown
drains in-flight work, a killed worker's tasks are re-dispatched
without dropping or duplicating tuples, and an asyncio cancellation
leaves the fleet fully serviceable.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
import warnings

import pytest

from repro.queries import CompiledEvaluator, RegexCQ
from repro.runtime import CompiledSpanner, SpannerService

WORD_FORMULA = "(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)"
DIGIT_FORMULA = ".*d{[0-9]+}.*"

#: Every concrete compute backend; parity tests run over all three to
#: pin the contract that the substrate never shows in the bytes.
BACKENDS = ("serial", "thread", "process")

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


def canonical(out: list) -> bytes:
    """Byte rendering of per-document tuple lists (order-sensitive)."""
    lines = [
        ";".join(
            " ".join(f"{v}={t[v]}" for v in sorted(t.variables))
            for t in per_doc
        )
        for per_doc in out
    ]
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


@pytest.fixture(scope="module")
def digit_serial():
    return list(CompiledSpanner(DIGIT_FORMULA).evaluate_many(DOCS))


def equality_engine():
    """A fused equality engine (``CompiledEqualityQuery``) + its corpus."""
    query = RegexCQ(
        ["x", "y"],
        [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
        equalities=[["x", "y"]],
    )
    engine = CompiledEvaluator().equality_runtime(query)
    assert engine is not None
    docs = ["ababab", "aabbaa", "babab", "abba", "bb", ""] * 3
    return engine, docs


class TestFleetMatchesSerial:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_queries_one_fleet_byte_identical(
        self, word_serial, digit_serial, backend
    ):
        """Acceptance: 2 workers, >= 2 registered queries (one of them
        an equality query), results byte-identical and in-order —
        whatever compute backend carries the fleet."""
        eq_engine, eq_docs = equality_engine()
        eq_serial = list(eq_engine.evaluate_many(eq_docs))
        with SpannerService(workers=2, chunk_size=3, backend=backend) as service:
            q_word = service.register(CompiledSpanner(WORD_FORMULA))
            q_digit = service.register(CompiledSpanner(DIGIT_FORMULA))
            q_eq = service.register(eq_engine)
            # All three dispatched before any result is consumed: the
            # queries genuinely share the same workers.
            f_word = service.submit(DOCS, queries=q_word)
            f_digit = service.submit(DOCS, queries=q_digit)
            f_eq = service.submit(eq_docs, queries=q_eq)
            assert canonical(f_word.result()) == canonical(word_serial)
            assert canonical(f_digit.result()) == canonical(digit_serial)
            assert canonical(f_eq.result()) == canonical(eq_serial)

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_forced_recycle_byte_identical(self, word_serial, transport):
        """max_tasks_per_worker=1: every task retires a worker; the
        output must not notice — segment release included, when the
        documents ride shared memory."""
        if transport == "shm":
            _require_shm()
        with SpannerService(
            workers=2, chunk_size=2, max_tasks_per_worker=1,
            transport=transport,
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit(DOCS, queries=qid).result()
            assert canonical(out) == canonical(word_serial)
            assert service.workers_recycled > 0
        if transport == "shm":
            assert not dev_shm_segments()

    def test_recycling_prunes_exited_processes(self, word_serial):
        """A continuously recycling fleet must not accumulate process
        handles forever (the lifetime list is pruned as workers exit)."""
        with SpannerService(
            workers=2, chunk_size=1, max_tasks_per_worker=1
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(2):
                out = service.submit(DOCS, queries=qid).result()
                assert out == word_serial
            assert service.workers_recycled >= 32
            deadline = time.time() + 5
            while time.time() < deadline:
                if len(service._all_processes) <= 2 * service.workers:
                    break
                time.sleep(0.05)
            assert len(service._all_processes) <= 2 * service.workers + 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recycle_across_queries(self, word_serial, digit_serial, backend):
        eq_engine, eq_docs = equality_engine()
        eq_serial = list(eq_engine.evaluate_many(eq_docs))
        with SpannerService(
            workers=2, chunk_size=4, max_tasks_per_worker=2, backend=backend
        ) as service:
            ids = [
                service.register(CompiledSpanner(WORD_FORMULA)),
                service.register(CompiledSpanner(DIGIT_FORMULA)),
                service.register(eq_engine),
            ]
            futs = [
                service.submit(DOCS, queries=ids[0]),
                service.submit(DOCS, queries=ids[1]),
                service.submit(eq_docs, queries=ids[2]),
            ]
            assert [f.result() for f in futs] == [
                word_serial, digit_serial, eq_serial
            ]
            assert service.workers_recycled > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_and_limit(self, word_serial, backend):
        with SpannerService(workers=2, chunk_size=3, backend=backend) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            capped = service.submit(DOCS, queries=qid, limit=2).result()
            assert capped == [per_doc[:2] for per_doc in word_serial]
            counts = service.submit_counts(DOCS, queries=qid).result()
            assert counts == [len(per_doc) for per_doc in word_serial]
            capped_counts = service.submit_counts(
                DOCS, queries=qid, cap=3
            ).result()
            assert capped_counts == [min(c, 3) for c in counts]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_files(self, tmp_path, word_serial, backend):
        paths = []
        for i, doc in enumerate(DOCS[:10]):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(doc, encoding="utf-8")
            paths.append(str(path))
        with SpannerService(workers=2, chunk_size=3, backend=backend) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit_files(paths, queries=qid).result()
            assert out == word_serial[:10]
            with pytest.raises(OSError):
                service.submit_files(
                    paths + ["/nonexistent/x"], queries=qid
                ).result()
            # An unreadable file fails its batch; the fleet survives.
            out = service.submit(DOCS[:4], queries=qid).result()
            assert out == word_serial[:4]


class TestRegistration:
    def test_fingerprint_dedupes_identical_artifacts(self):
        spanner = CompiledSpanner(WORD_FORMULA)
        with SpannerService(workers=1) as service:
            first = service.register(spanner)
            second = service.register(spanner)
            assert first == second
            assert len(service.queries) == 1

    def test_explicit_id_conflict_raises(self):
        with SpannerService(workers=1) as service:
            service.register(CompiledSpanner(WORD_FORMULA), query_id="logs")
            # Same name, same artifact: fine (idempotent).
            service.register(CompiledSpanner(WORD_FORMULA), query_id="logs")
            with pytest.raises(ValueError):
                service.register(
                    CompiledSpanner(DIGIT_FORMULA), query_id="logs"
                )

    def test_unknown_query_id_raises(self):
        with SpannerService(workers=1) as service:
            with pytest.raises(KeyError):
                service.submit_chunk("no-such-query", ["doc"])

    def test_late_registration_reaches_running_workers(self, digit_serial):
        with SpannerService(workers=2, chunk_size=3) as service:
            q1 = service.register(CompiledSpanner(WORD_FORMULA))
            service.submit(DOCS[:6], queries=q1).result()  # fleet is warm
            q2 = service.register(CompiledSpanner(DIGIT_FORMULA))
            assert service.submit(DOCS, queries=q2).result() == digit_serial

    def test_validation(self):
        with pytest.raises(ValueError):
            SpannerService(workers=0)
        with pytest.raises(ValueError):
            SpannerService(chunk_size=0)
        with pytest.raises(ValueError):
            SpannerService(max_tasks_per_worker=0)
        with pytest.raises(ValueError):
            SpannerService(max_in_flight=0)
        for bad in (
            {"encoding": "no-such-codec"},
            {"errors": "bogus"},
            {"mp_context": "bogus"},
            {"task_timeout": float("nan")},
            {"quarantine_cooldown": float("nan")},
        ):
            with pytest.raises(ValueError):
                SpannerService(**bad)
        for bad in ({"workers": True}, {"chunk_size": 2.5}):
            with pytest.raises(TypeError):
                SpannerService(**bad)


class TestFailurePaths:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_killed_worker_redispatches_without_loss_or_dup(
        self, word_serial, transport
    ):
        """SIGKILL one worker mid-batch: the batch still resolves to
        exactly the serial result — nothing dropped, nothing doubled —
        and the fleet keeps serving afterwards.  Over shm transport
        this also exercises segment release on worker *death*, not
        just on clean resolution."""
        if transport == "shm":
            _require_shm()
        service = SpannerService(workers=2, chunk_size=2, transport=transport)
        try:
            service.start()
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            future = service.submit(DOCS, queries=qid)
            victim = service._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            assert canonical(future.result(timeout=120)) == canonical(
                word_serial
            )
            assert service.workers_crashed == 1
            # Replacement spawned: the fleet is whole and serviceable.
            assert service.submit(DOCS[:5], queries=qid).result(
                timeout=60
            ) == word_serial[:5]
        finally:
            service.close()
        if transport == "shm":
            assert not dev_shm_segments()

    def test_kill_during_each_phase_converges(self, word_serial):
        """Kill a worker at a few offsets; at-most-once resolution must
        hold at every interleaving (idle, mid-task, near-drain)."""
        for delay in (0.0, 0.05):
            service = SpannerService(workers=2, chunk_size=1)
            try:
                service.start()
                qid = service.register(CompiledSpanner(WORD_FORMULA))
                future = service.submit(DOCS, queries=qid)
                time.sleep(delay)
                os.kill(service._workers[-1].process.pid, signal.SIGKILL)
                assert future.result(timeout=120) == word_serial
            finally:
                service.close()

    def test_shutdown_drains_in_flight_work(self, word_serial):
        """close() with work in flight resolves every future first."""
        service = SpannerService(workers=2, chunk_size=2)
        service.start()
        qid = service.register(CompiledSpanner(WORD_FORMULA))
        futures = [service.submit(DOCS, queries=qid) for _ in range(3)]
        service.close()  # drain-then-stop
        for future in futures:
            assert future.result(timeout=0) == word_serial
        with pytest.raises(RuntimeError):
            service.submit_chunk(qid, DOCS[:2])

    def test_terminate_cancels_outstanding(self):
        service = SpannerService(workers=2, chunk_size=1)
        service.start()
        qid = service.register(CompiledSpanner(WORD_FORMULA))
        futures = [service.submit_chunk(qid, ["a b c"]) for _ in range(64)]
        service.close(drain=False)
        # Every future is resolved one way or the other — nothing hangs.
        done = sum(1 for f in futures if f.done())
        assert done == len(futures)

    def test_close_is_idempotent(self):
        service = SpannerService(workers=1)
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.start()

    def test_drain_timeout_fails_unresolved_futures(self):
        """close(drain=True, timeout=...) must never leave a future
        pending: work the drain window could not finish is failed with
        ServiceClosedError, and the close returns promptly (the timeout
        also bounds the worker joins)."""
        from repro.errors import ServiceClosedError
        from chaos import FaultPlan, chaos_service

        plan = FaultPlan()
        for task in range(8):
            plan.hang(task=task)
        service = chaos_service(workers=2, chunk_size=1, plan=plan)
        service.start()
        qid = service.register(CompiledSpanner(WORD_FORMULA))
        futures = [service.submit_chunk(qid, [doc]) for doc in DOCS[:8]]
        start = time.monotonic()
        service.close(drain=True, timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 10  # bounded even though every worker hangs
        for future in futures:
            assert future.done()
            with pytest.raises(ServiceClosedError):
                future.result(timeout=0)


class TestHealth:
    def test_health_snapshot_shape_and_counters(self, word_serial):
        with SpannerService(workers=2, chunk_size=3) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            idle = service.health()
            assert idle["backend"] == {
                "name": "process", "worker_model": "process"
            }
            assert len(idle["workers"]) == 2
            for w in idle["workers"]:
                assert w["alive"]
                assert w["running_task"] is None  # nothing dispatched yet
                assert w["heartbeat_age"] is None
            assert idle["backlog_depth"] == 0
            assert idle["queries_registered"] == 1
            assert idle["quarantined_queries"] == {}

            assert service.submit(DOCS, queries=qid).result() == word_serial
            busy = service.health()
            counters = busy["counters"]
            assert counters["tasks_completed"] == len(DOCS) // 3 + 1
            assert counters["tasks_timed_out"] == 0
            assert counters["worker_restarts"] == 0
            assert busy["tasks_outstanding"] == 0

    def test_health_snapshot_survives_json_round_trip(self, word_serial):
        # Operators ship health() to log pipelines: every snapshot —
        # idle, after traffic, with memory sampling on — must be
        # json.dumps-able and come back equal through loads.
        import json

        with SpannerService(
            workers=2, chunk_size=3, worker_memory_limit=1 << 30
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            idle = service.health()
            assert json.loads(json.dumps(idle)) == idle
            assert service.submit(DOCS, queries=qid).result() == word_serial
            busy = service.health()
            assert json.loads(json.dumps(busy)) == busy
            rss = busy["resources"]["worker_rss_bytes"]
            assert all(isinstance(k, str) for k in rss)

    def test_health_reflects_crash_restarts(self, word_serial):
        service = SpannerService(workers=2, chunk_size=2)
        try:
            service.start()
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            future = service.submit(DOCS, queries=qid)
            os.kill(service._workers[0].process.pid, signal.SIGKILL)
            future.result(timeout=120)
            health = service.health()
            assert health["counters"]["workers_crashed"] == 1
            assert health["counters"]["worker_restarts"] == 1
            # The replacement keeps the fleet at strength.
            assert len(health["workers"]) == 2
        finally:
            service.close()


class TestAsyncFrontend:
    def test_extract_matches_serial(self, word_serial, digit_serial):
        async def run():
            with SpannerService(workers=2, chunk_size=3) as service:
                q1 = service.register(CompiledSpanner(WORD_FORMULA))
                q2 = service.register(CompiledSpanner(DIGIT_FORMULA))
                one, two = await asyncio.gather(
                    service.extract(q1, DOCS), service.extract(q2, DOCS)
                )
                return one, two

        one, two = asyncio.run(run())
        assert canonical(one) == canonical(word_serial)
        assert canonical(two) == canonical(digit_serial)

    def test_gather_mixes_futures_and_coroutines(self, word_serial):
        async def run():
            with SpannerService(workers=2, chunk_size=4) as service:
                qid = service.register(CompiledSpanner(WORD_FORMULA))
                return await service.gather(
                    service.submit(DOCS[:4], queries=qid),
                    service.extract(qid, DOCS[4:8]),
                )

        first, second = asyncio.run(run())
        assert first == word_serial[:4]
        assert second == word_serial[4:8]

    def test_cancellation_leaves_fleet_serviceable(self, word_serial):
        async def run():
            with SpannerService(workers=2, chunk_size=1) as service:
                qid = service.register(CompiledSpanner(WORD_FORMULA))
                # Enough work that the cancel lands while chunks are
                # still in flight (64 single-doc chunks on 2 workers).
                task = asyncio.create_task(service.extract(qid, DOCS * 2))
                await asyncio.sleep(0.01)
                cancelled = task.cancel()
                if cancelled:
                    with pytest.raises(asyncio.CancelledError):
                        await task
                else:  # the batch won the race and already resolved
                    assert await task == word_serial * 2
                # The fleet absorbed the abandoned work and still serves.
                return await service.extract(qid, DOCS[:6])

        assert asyncio.run(run()) == word_serial[:6]

    def test_extract_files(self, tmp_path, word_serial):
        paths = []
        for i, doc in enumerate(DOCS[:8]):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(doc, encoding="utf-8")
            paths.append(str(path))

        async def run():
            with SpannerService(workers=2, chunk_size=3) as service:
                qid = service.register(CompiledSpanner(WORD_FORMULA))
                return await service.extract_files(qid, paths)

        assert asyncio.run(run()) == word_serial[:8]

    def test_extract_and_extract_files_never_warn(self, tmp_path, word_serial):
        path = tmp_path / "doc.txt"
        path.write_text(DOCS[0], encoding="utf-8")

        async def run():
            with SpannerService(workers=1, backend="serial") as service:
                qid = service.register(CompiledSpanner(WORD_FORMULA))
                return (
                    await service.extract(qid, DOCS[:4]),
                    await service.extract_files(qid, [str(path)]),
                )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            docs, files = asyncio.run(run())
        assert docs == word_serial[:4]
        assert files == word_serial[:1]


def dev_shm_segments() -> set[str]:
    import glob

    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {os.path.basename(p) for p in glob.glob("/dev/shm/sjdoc-*")}


def _require_shm():
    from repro.runtime import shm_available

    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")


class TestSharedMemoryTransport:
    """The fleet over shm transport: parity, crash cleanup, recycling."""

    def test_forced_shm_byte_identical(self, word_serial, digit_serial):
        _require_shm()
        with SpannerService(
            workers=2, chunk_size=3, transport="shm"
        ) as service:
            q_word = service.register(CompiledSpanner(WORD_FORMULA))
            q_digit = service.register(CompiledSpanner(DIGIT_FORMULA))
            f_word = service.submit(DOCS, queries=q_word)
            f_digit = service.submit(DOCS, queries=q_digit)
            assert canonical(f_word.result()) == canonical(word_serial)
            assert canonical(f_digit.result()) == canonical(digit_serial)
        assert not dev_shm_segments()

    def test_forced_pipe_byte_identical(self, word_serial):
        with SpannerService(
            workers=2, chunk_size=3, transport="pipe"
        ) as service:
            assert service._doc_transport is None
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit(DOCS, queries=qid).result()
            assert canonical(out) == canonical(word_serial)

    def test_killed_worker_leaves_no_orphaned_segments(self, word_serial):
        """SIGKILL a worker holding shm-backed tasks: the batch still
        resolves exactly (re-dispatch re-uses the same segments) and
        nothing is left in /dev/shm after close."""
        _require_shm()
        service = SpannerService(workers=2, chunk_size=2, transport="shm")
        try:
            service.start()
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            future = service.submit(DOCS, queries=qid)
            os.kill(service._workers[0].process.pid, signal.SIGKILL)
            assert canonical(future.result(timeout=120)) == canonical(
                word_serial
            )
            assert service.workers_crashed == 1
        finally:
            service.close()
        assert not dev_shm_segments()

    def test_recycling_fleet_leaves_no_orphaned_segments(self, word_serial):
        _require_shm()
        with SpannerService(
            workers=2, chunk_size=2, transport="shm", max_tasks_per_worker=1
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit(DOCS, queries=qid).result()
            assert canonical(out) == canonical(word_serial)
            assert service.workers_recycled > 0
        assert not dev_shm_segments()

    def test_terminate_with_shm_in_flight_sweeps_segments(self):
        _require_shm()
        service = SpannerService(workers=2, chunk_size=1, transport="shm")
        service.start()
        qid = service.register(CompiledSpanner(WORD_FORMULA))
        futures = [service.submit_chunk(qid, ["a b c"]) for _ in range(32)]
        service.close(drain=False)  # cancel outstanding, terminate fleet
        assert all(f.done() for f in futures)
        assert not dev_shm_segments()

    def test_equality_query_over_shm(self):
        _require_shm()
        eq_engine, eq_docs = equality_engine()
        eq_serial = list(eq_engine.evaluate_many(eq_docs))
        with SpannerService(
            workers=2, chunk_size=3, transport="shm"
        ) as service:
            qid = service.register(eq_engine)
            out = service.submit(eq_docs, queries=qid).result()
            assert canonical(out) == canonical(eq_serial)
        assert not dev_shm_segments()

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError):
            SpannerService(workers=1, transport="smoke-signals")


class TestBackpressure:
    def test_max_in_flight_bounds_dispatch(self, word_serial):
        """With max_in_flight, results stay correct and the semaphore
        is recycled task by task (no leak: a second batch still runs)."""
        with SpannerService(
            workers=2, chunk_size=2, max_in_flight=2
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            assert service.submit(DOCS, queries=qid).result() == word_serial
            assert service.submit(DOCS, queries=qid).result() == word_serial
