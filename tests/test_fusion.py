"""One-pass multi-query fusion (``submit_all`` / ``extract_all``).

The contract under test: a fused batch — one leveled-NFA sweep per
document answering every member query — is **observably identical** to
Q sequential submissions:

* per-query tuple streams byte-identical (content *and* order) to the
  serial engine and to ``fuse=False`` sequential serving, across the
  pipe and shm transports and for docs/files work alike;
* faults inside a fused task indict only the member whose phase was
  running: the offending query's breaker opens, the innocent members'
  breakers stay closed and keep serving;
* ``register()`` returns a :class:`QueryHandle` usable anywhere a
  query id string is.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import QueryQuarantinedError, TaskTimeoutError
from repro.runtime import (
    CompiledSpanner,
    ParallelSpanner,
    QueryHandle,
    SpannerService,
)
from repro.runtime.fusion import (
    FUSED_ID_PREFIX,
    FusedQuery,
    fused_fingerprint,
    fused_query_id,
    plan_submission,
)
from repro.runtime.store import FileStore

from chaos import FaultPlan, chaos_service

from test_service import (
    DIGIT_FORMULA,
    DOCS,
    WORD_FORMULA,
    canonical,
    equality_engine,
    _require_shm,
)

DEADLINE = 0.5

#: A third regex query with a different shape (wildcard-heavy), so the
#: mixed-cohort tests cover sweep-static and sweep-dynamic members.
UPPER_FORMULA = ".*u{[A-Z]+}.*"


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


@pytest.fixture(scope="module")
def digit_serial():
    return list(CompiledSpanner(DIGIT_FORMULA).evaluate_many(DOCS))


@pytest.fixture(scope="module")
def upper_serial():
    return list(CompiledSpanner(UPPER_FORMULA).evaluate_many(DOCS))


# ---------------------------------------------------------------------------
# Planning layer
# ---------------------------------------------------------------------------
class TestPlanning:
    def test_single_member_never_fuses(self):
        assert plan_submission(["q1"]) == ("sequential", ("q1",))

    def test_two_members_fuse_by_default(self):
        mode, ids = plan_submission(["q1", "q2"])
        assert mode == "fused"
        assert sorted(ids) == ["q1", "q2"]

    def test_fuse_false_is_sequential(self):
        assert plan_submission(["q1", "q2"], fuse=False)[0] == "sequential"

    def test_fused_ids_are_order_insensitive_and_prefixed(self):
        a = fused_query_id(["sha-b", "sha-a"])
        b = fused_query_id(["sha-a", "sha-b"])
        assert a == b
        assert a.startswith(FUSED_ID_PREFIX)
        assert fused_fingerprint(["sha-b", "sha-a"]) == fused_fingerprint(
            ["sha-a", "sha-b"]
        )

    def test_fused_query_needs_two_distinct_members(self):
        spanner = CompiledSpanner(WORD_FORMULA)
        with pytest.raises(ValueError):
            FusedQuery([("q1", spanner)])
        with pytest.raises(ValueError):
            FusedQuery([("q1", spanner), ("q1", spanner)])


# ---------------------------------------------------------------------------
# Byte parity: fused vs sequential vs serial
# ---------------------------------------------------------------------------
class TestFusedParity:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_mixed_cohorts_byte_identical(
        self, transport, word_serial, digit_serial, upper_serial
    ):
        """Acceptance: regex + equality members fused in one batch, per
        query byte-identical to serial and to fuse=False, on both
        transports."""
        if transport == "shm":
            _require_shm()
        eq_engine, eq_docs = equality_engine()
        # All members must share one batch, so evaluate the equality
        # query over the same corpus the regex members see.
        eq_serial = list(eq_engine.evaluate_many(DOCS))
        with SpannerService(
            workers=2, chunk_size=3, transport=transport
        ) as svc:
            handles = [
                svc.register(CompiledSpanner(WORD_FORMULA)),
                svc.register(CompiledSpanner(DIGIT_FORMULA)),
                svc.register(CompiledSpanner(UPPER_FORMULA)),
                svc.register(eq_engine),
            ]
            fused = svc.submit_all(DOCS, queries=handles)
            sequential = svc.submit_all(DOCS, queries=handles, fuse=False)
            expected = [word_serial, digit_serial, upper_serial, eq_serial]
            for handle, serial in zip(handles, expected):
                got = fused[handle].result(timeout=120)
                assert canonical(got) == canonical(serial)
                assert canonical(
                    sequential[handle].result(timeout=120)
                ) == canonical(serial)

    def test_files_op_byte_identical(
        self, tmp_path, word_serial, digit_serial
    ):
        paths = []
        for i, doc in enumerate(DOCS):
            p = tmp_path / f"doc{i}.txt"
            p.write_text(doc)
            paths.append(str(p))
        with SpannerService(workers=2, chunk_size=4) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(paths, kind="files")
            assert canonical(out[q_word].result(timeout=120)) == canonical(
                word_serial
            )
            assert canonical(out[q_digit].result(timeout=120)) == canonical(
                digit_serial
            )

    def test_queries_none_means_every_registered(self, word_serial):
        with SpannerService(workers=1, chunk_size=8) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(DOCS)
            assert set(out) == set(svc.queries)
            assert canonical(out[q_word].result(timeout=120)) == canonical(
                word_serial
            )

    def test_limit_is_the_serial_prefix(self):
        with SpannerService(workers=1, chunk_size=8) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            full = svc.submit_all(DOCS)
            capped = svc.submit_all(DOCS, limit=1)
            for qid in (q_word, q_digit):
                want = [per_doc[:1] for per_doc in full[qid].result(120)]
                assert capped[qid].result(timeout=120) == want

    def test_extract_all_async_parity(self, word_serial, digit_serial):
        async def scenario():
            with SpannerService(workers=2, chunk_size=4) as svc:
                q_word = svc.register(CompiledSpanner(WORD_FORMULA))
                q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
                return q_word, q_digit, await svc.extract_all(DOCS)

        q_word, q_digit, out = asyncio.run(scenario())
        assert canonical(out[q_word]) == canonical(word_serial)
        assert canonical(out[q_digit]) == canonical(digit_serial)

    def test_duplicate_queries_rejected(self):
        with SpannerService(workers=1) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            with pytest.raises(ValueError):
                svc.submit_all(DOCS[:2], queries=[qid, qid])

    def test_fused_artifact_cached_and_revived(self, tmp_path, word_serial):
        """The fused engine lands in the artifact store under its
        member-fingerprint key and is revived on a warm start."""
        store = FileStore(str(tmp_path / "cache"))
        for _round in range(2):
            with SpannerService(
                workers=1, chunk_size=8, artifact_store=store
            ) as svc:
                q_word = svc.register(WORD_FORMULA)
                svc.register(DIGIT_FORMULA)
                out = svc.submit_all(DOCS)
                assert canonical(
                    out[q_word].result(timeout=120)
                ) == canonical(word_serial)
        fused_keys = [
            key for key, _size, _mtime in store.entries()
            if key.startswith("f")
        ]
        assert fused_keys, "fused artifact missing from the store"

    def test_fused_ids_stay_out_of_introspection(self):
        with SpannerService(workers=1, chunk_size=8) as svc:
            svc.register(CompiledSpanner(WORD_FORMULA))
            svc.register(CompiledSpanner(DIGIT_FORMULA))
            for fut in svc.submit_all(DOCS[:4]).values():
                fut.result(timeout=120)
            assert all(
                not qid.startswith(FUSED_ID_PREFIX) for qid in svc.queries
            )
            assert svc.health()["queries_registered"] == 2


# ---------------------------------------------------------------------------
# ParallelSpanner sessions serve one query: never fused
# ---------------------------------------------------------------------------
class TestParallelSpannerFuseKnob:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_single_query_session_unchanged(self, fuse, word_serial):
        # The knob is gone, whatever its value: it is rejected, not
        # silently ignored, and the session serves as before without it.
        with pytest.raises(TypeError, match="fuse"):
            ParallelSpanner(WORD_FORMULA, workers=2, fuse=fuse)
        with ParallelSpanner(WORD_FORMULA, workers=2) as engine:
            out = list(engine.evaluate_many(DOCS))
        assert canonical(out) == canonical(word_serial)

    def test_workers_one_serial_unchanged(self, word_serial):
        engine = ParallelSpanner(WORD_FORMULA, workers=1)
        assert canonical(list(engine.evaluate_many(DOCS))) == canonical(
            word_serial
        )


# ---------------------------------------------------------------------------
# Faults inside fused tasks: per-member indictment
# ---------------------------------------------------------------------------
class TestFusedFaults:
    def test_member_crash_indicts_only_offender(self, word_serial):
        """A member-scoped crash takes the fused task down, but only
        the offending member's breaker opens; the innocent member keeps
        serving and stays byte-identical."""
        with SpannerService(workers=1, chunk_size=8) as probe:
            bad = str(probe.register(CompiledSpanner(DIGIT_FORMULA)))
        plan = FaultPlan().crash(task=0, member=bad)  # every attempt
        with chaos_service(
            workers=1, chunk_size=len(DOCS), plan=plan,
            quarantine_after=1, quarantine_cooldown=60.0,
        ) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            assert str(q_digit) == bad
            out = svc.submit_all(DOCS)
            with pytest.raises(RuntimeError, match="giving up"):
                out[q_digit].result(timeout=120)
            # The fused task died as a unit: the sibling's future fails
            # too — but the breaker ledger knows who was running.
            with pytest.raises(Exception):
                out[q_word].result(timeout=120)
            assert svc.quarantined_queries == (str(q_digit),)
            with pytest.raises(QueryQuarantinedError):
                svc.submit_all(DOCS, queries=[q_word, q_digit], fuse=False)[
                    q_digit
                ].result(timeout=120)
            # The innocent member still serves, bytes intact.
            healthy = svc.submit(DOCS, queries=q_word).result(timeout=120)
            assert canonical(healthy) == canonical(word_serial)

    def test_member_hang_timeout_names_offender(self, word_serial):
        """A member-scoped hang trips the deadline; the timeout names
        the indicted member and only its breaker is charged."""
        with SpannerService(workers=1, chunk_size=8) as probe:
            bad = str(probe.register(CompiledSpanner(DIGIT_FORMULA)))
        plan = FaultPlan().hang(task=0, member=bad)
        with chaos_service(
            workers=1, chunk_size=len(DOCS), plan=plan,
            task_timeout=DEADLINE, quarantine_after=1,
            quarantine_cooldown=60.0,
        ) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(DOCS)
            with pytest.raises(TaskTimeoutError, match="serving member"):
                out[q_digit].result(timeout=120)
            deadline = time.time() + 10
            while time.time() < deadline and not svc.quarantined_queries:
                time.sleep(0.05)
            assert svc.quarantined_queries == (str(q_digit),)
            healthy = svc.submit(DOCS, queries=q_word).result(timeout=120)
            assert canonical(healthy) == canonical(word_serial)

    def test_first_attempt_crash_retries_byte_identical(
        self, word_serial, digit_serial
    ):
        """A fused task crashing once and succeeding on re-dispatch is
        invisible in the results."""
        with SpannerService(workers=1, chunk_size=8) as probe:
            bad = str(probe.register(CompiledSpanner(DIGIT_FORMULA)))
        plan = FaultPlan().crash(task=0, attempts=(1,), member=bad)
        with chaos_service(
            workers=2, chunk_size=4, plan=plan
        ) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(DOCS)
            assert canonical(out[q_word].result(timeout=120)) == canonical(
                word_serial
            )
            assert canonical(out[q_digit].result(timeout=120)) == canonical(
                digit_serial
            )
            assert svc.workers_crashed >= 1

    def test_quarantined_member_filtered_not_fatal(self, word_serial):
        """submit_all with one quarantined member fails that member's
        future synchronously and serves the rest (fused or not)."""
        with SpannerService(
            workers=1, chunk_size=len(DOCS), quarantine_after=1,
            quarantine_cooldown=60.0,
        ) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            # Open the digit breaker directly via the ledger: a fused
            # batch with a poisoned member is exercised above; here we
            # only need the filtered-submission behavior.
            from repro.runtime.service import _Breaker

            with svc._lock:
                breaker = svc._breakers.setdefault(str(q_digit), _Breaker())
                breaker.failures = 1
                breaker.opened_at = time.monotonic()
            out = svc.submit_all(DOCS)
            with pytest.raises(QueryQuarantinedError):
                out[q_digit].result(timeout=120)
            assert canonical(out[q_word].result(timeout=120)) == canonical(
                word_serial
            )


# ---------------------------------------------------------------------------
# API redesign: QueryHandle and the unified submit family
# ---------------------------------------------------------------------------
class TestUnifiedSubmitAPI:
    def test_register_returns_query_handle(self):
        with SpannerService(workers=1, task_timeout=2.0, max_tuples=7) as svc:
            handle = svc.register(CompiledSpanner(WORD_FORMULA))
            assert isinstance(handle, QueryHandle)
            assert isinstance(handle, str)
            assert handle == str(handle)
            assert handle.fingerprint and len(handle.fingerprint) == 64
            assert handle.timeout == 2.0
            assert handle.max_tuples == 7
            assert handle.max_result_bytes is None

    def test_counts_never_fuse(self):
        with SpannerService(workers=1, chunk_size=8) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(DOCS, kind="counts")
            word = CompiledSpanner(WORD_FORMULA)
            digit = CompiledSpanner(DIGIT_FORMULA)
            assert out[q_word].result(timeout=120) == list(
                word.count_many(DOCS)
            )
            assert out[q_digit].result(timeout=120) == list(
                digit.count_many(DOCS)
            )

    def test_bad_kind_rejected(self):
        with SpannerService(workers=1) as svc:
            svc.register(CompiledSpanner(WORD_FORMULA))
            with pytest.raises(ValueError):
                svc.submit_all(DOCS[:2], kind="frobnicate")
