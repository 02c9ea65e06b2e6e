"""Multi-query fusion (``submit_all`` / ``extract_all``).

The contract under test: a fused batch — one task per chunk, in which
the worker composes the members' own engines to answer every member
query — is **observably identical** to Q sequential submissions:

* per-query tuple streams byte-identical (content *and* order) to the
  serial engine and to ``fuse=False`` sequential serving, across the
  pipe and shm transports and for docs/files work alike;
* faults inside a fused task indict only the member whose phase was
  running: the offending query's breaker opens, the innocent members'
  breakers stay closed and keep serving;
* fusion is a composition: it registers, stores and materializes
  nothing beyond the member queries themselves;
* ``register()`` returns a :class:`QueryHandle` usable anywhere a
  query id string is.
"""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    QueryQuarantinedError,
    ResultLimitError,
    TaskTimeoutError,
)
from repro.runtime import (
    CompiledSpanner,
    ParallelSpanner,
    QueryHandle,
    SpannerService,
)
from repro.runtime.fusion import FusedQuery, plan_cohorts
from repro.runtime.store import FileStore, MemoryStore

from chaos import FaultPlan, chaos_service

from test_properties import ALPHABET, functional_formulas

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
#: mixed-cohort tests cover members of more than one shape.
UPPER_FORMULA = ".*u{[A-Z]+}.*"

#: One tuple per span of the document: the member that makes a
#: ``max_tuples`` cap cut.
EVERY_SPAN_FORMULA = ".*x{.*}.*"


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
    def test_cohorts_group_members_by_engine(self):
        eq_engine, _docs = equality_engine()
        members = [
            ("a", CompiledSpanner(WORD_FORMULA)),
            ("b", eq_engine),
            ("c", CompiledSpanner(UPPER_FORMULA).tables),
        ]
        kinds = [(kind, [m for m, _ in entries])
                 for kind, entries in plan_cohorts(members)]
        assert kinds == [("sweep", [0, 2]), ("equality", [1])]

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

    def test_warm_generation_serves_fused_without_puts(
        self, tmp_path, word_serial, digit_serial
    ):
        """A warm driver generation revives the members from the store
        and serves fused batches byte-identically without a single
        store write: there is no fused artifact to build or cache."""
        root = str(tmp_path / "cache")
        generations = []
        for _round in range(2):
            store = FileStore(root)
            with SpannerService(
                workers=1, chunk_size=8, artifact_store=store
            ) as svc:
                q_word = svc.register(WORD_FORMULA)
                q_digit = svc.register(DIGIT_FORMULA)
                out = svc.submit_all(DOCS)
                generations.append(
                    [canonical(out[q].result(timeout=120))
                     for q in (q_word, q_digit)]
                )
        assert store.stats()["puts"] == 0
        assert store.stats()["hits"] == 2
        expected = [canonical(word_serial), canonical(digit_serial)]
        assert generations == [expected, expected]

    def test_fused_ids_stay_out_of_introspection(self):
        with SpannerService(workers=1, chunk_size=8) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            for fut in svc.submit_all(DOCS[:4]).values():
                fut.result(timeout=120)
            assert svc.queries == (q_word, q_digit)
            assert svc.health()["queries_registered"] == 2


# ---------------------------------------------------------------------------
# Fusion is a composition: nothing beyond the members is built or shipped
# ---------------------------------------------------------------------------
def _serve_solo_then_fused(svc) -> tuple[str, str]:
    q_word = svc.register(WORD_FORMULA)
    q_digit = svc.register(DIGIT_FORMULA)
    for qid in (q_word, q_digit):
        svc.submit(DOCS, queries=qid).result(timeout=120)
    for fut in svc.submit_all(DOCS).values():
        fut.result(timeout=120)
    return q_word, q_digit


class TestComposition:
    def test_registry_and_store_hold_only_registered_queries(self):
        store = MemoryStore()
        with SpannerService(
            workers=1, chunk_size=8, artifact_store=store
        ) as svc:
            qids = _serve_solo_then_fused(svc)
            assert svc.queries == qids
            assert set(svc._registry.payloads) == set(qids)
            assert len(store.keys()) == 2
            assert store.stats()["puts"] == 2

    def test_thread_backend_holds_one_engine_per_query(self):
        with SpannerService(
            workers=2, chunk_size=8, backend="thread"
        ) as svc:
            qids = _serve_solo_then_fused(svc)
            assert set(svc._backend._engines) == set(qids)

    def test_worker_holding_members_gets_no_payload(self):
        """A process worker that already served both members solo
        receives its first fused task with no shipment at all."""
        with SpannerService(
            workers=1, chunk_size=len(DOCS), backend="process"
        ) as svc:
            sent = []
            dispatch = svc._backend.dispatch

            def recording(worker, msg):
                sent.append(msg)
                dispatch(worker, msg)

            svc._backend.dispatch = recording
            qids = _serve_solo_then_fused(svc)
        # msg[3] names the task's members, msg[4] one shipment each.
        solo = [msg for msg in sent if len(msg[3]) == 1]
        fused = [msg for msg in sent if len(msg[3]) > 1]
        assert [type(slot) for msg in solo for slot in msg[4]] == [
            bytes, bytes
        ]
        assert len(fused) == 1
        assert fused[0][3] == tuple(sorted(qids))
        assert fused[0][4] == (None, None)


# ---------------------------------------------------------------------------
# One oracle for every serving path: each member's own evaluate_many
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.lists(functional_formulas(), min_size=1, max_size=3),
    st.lists(st.text(alphabet=ALPHABET, max_size=12), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_fused_serving_matches_member_engines(formulas, docs, k):
    """submit_all, single-query submit and submit_chunk all answer each
    member exactly as its own engine does — uncapped, under ``limit``,
    and truncated at ``max_tuples=k`` (the serial prefix, with every
    cut document counted)."""
    spanners = [CompiledSpanner(f) for f in formulas]
    expected = [list(sp.evaluate_many(docs)) for sp in spanners]
    # Drawn formulas rarely give a document more than one tuple, so the
    # truncate case adds a member with a tuple per span and a non-empty
    # document: some document is always cut.
    capped_docs = docs + ["abab"]
    capped_spanners = spanners + [CompiledSpanner(EVERY_SPAN_FORMULA)]
    prefixes = [
        [per_doc[:k] for per_doc in sp.evaluate_many(capped_docs)]
        for sp in capped_spanners
    ]
    cut = sum(
        len(per_doc) > k
        for sp in capped_spanners
        for per_doc in sp.evaluate_many(capped_docs)
    )
    for backend in ("serial", "thread"):
        with SpannerService(
            workers=2, chunk_size=2, backend=backend,
            on_result_limit="truncate",
        ) as svc:
            # Explicit ids: two formulas may compile to one artifact.
            ids = [
                svc.register(sp, query_id=f"m{i}")
                for i, sp in enumerate(capped_spanners)
            ]
            members = ids[:-1]
            full = svc.submit_all(docs, queries=members)
            first = svc.submit_all(docs, queries=members, limit=1)
            for qid, want in zip(members, expected):
                assert full[qid].result(timeout=60) == want
                assert first[qid].result(timeout=60) == [
                    per_doc[:1] for per_doc in want
                ]
                assert svc.submit(docs, queries=qid).result(timeout=60) == want
                assert svc.submit_chunk(qid, docs).result(timeout=60) == want
            assert svc.docs_truncated == 0
            capped = svc.submit_all(capped_docs, queries=ids, max_tuples=k)
            for qid, prefix in zip(ids, prefixes):
                assert capped[qid].result(timeout=60) == prefix
                assert svc.submit(
                    capped_docs, queries=qid, max_tuples=k
                ).result(timeout=60) == prefix
            assert cut and svc.docs_truncated == 2 * cut


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
            # Open the digit breaker directly: a fused batch with a
            # poisoned member is exercised above; here we only need the
            # filtered-submission behavior.
            with svc._lock:
                svc._breakers.charge(str(q_digit))
            out = svc.submit_all(DOCS)
            with pytest.raises(QueryQuarantinedError):
                out[q_digit].result(timeout=120)
            assert canonical(out[q_word].result(timeout=120)) == canonical(
                word_serial
            )


# ---------------------------------------------------------------------------
# Result caps count per (chunk, member), fused or not
# ---------------------------------------------------------------------------
class TestFusedResultLimits:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_result_limited_members_counted(self, fuse):
        with SpannerService(
            workers=1, backend="serial", chunk_size=len(DOCS), max_tuples=1
        ) as svc:
            q_word = svc.register(CompiledSpanner(WORD_FORMULA))
            q_digit = svc.register(CompiledSpanner(DIGIT_FORMULA))
            out = svc.submit_all(DOCS, fuse=fuse)
            for qid in (q_word, q_digit):
                with pytest.raises(ResultLimitError):
                    out[qid].result(timeout=120)
            # One chunk: one task naming both members, or one per query.
            assert svc.tasks_completed == (1 if fuse else 2)
            assert svc.tasks_result_limited == 2
            assert svc.health()["resources"]["tasks_result_limited"] == 2


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
