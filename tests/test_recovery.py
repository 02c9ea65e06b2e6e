"""Crash-recovery suite: durable fleet state under deterministic faults.

The contract of PR 8's persistence layer, end to end:

* ``kill -9`` of a driver mid-stream (the ``driver_kill`` chaos hook)
  followed by :meth:`SpannerService.restore` yields a fleet whose
  results are **byte-identical** to the crashed one's, with *no
  recompilation* for store-resident artifacts — the store's hit
  counter proves the warm path ran — and the orphaned ``/dev/shm``
  segments the crash stranded are swept at restore;
* a corrupted or torn store entry (the ``store_corrupt`` /
  ``store_torn_write`` hooks) is quarantined and transparently
  recompiled — counted, never fatal to any query;
* warm ``register()`` across driver generations sharing a ``FileStore``
  skips the compile and returns byte-identical results;
* ``restore()`` re-runs admission control under *today's* limits and
  re-arms quarantines that were open at the crash.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    QueryQuarantinedError,
    QueryRejectedError,
    SpannerError,
)
from repro.runtime import CompiledSpanner, SpannerService
from repro.runtime.store import FileStore
from repro.runtime.transport import shm_available

from chaos import FaultPlan, chaos_service
from test_service import DOCS, WORD_FORMULA, canonical, dev_shm_segments

FIXTURES = Path(__file__).parent / "fixtures"

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src")


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


# -- Warm start ---------------------------------------------------------------


class TestWarmStart:
    def test_second_generation_registers_from_the_store(
        self, tmp_path, word_serial
    ):
        root = tmp_path / "arts"
        with SpannerService(
            workers=2, chunk_size=3, artifact_store=FileStore(root)
        ) as cold:
            q_cold = cold.register(WORD_FORMULA)
            out_cold = cold.submit(DOCS, queries=q_cold).result()
            stats = cold.artifact_store.stats()
            assert stats["misses"] == 1 and stats["puts"] == 1

        # A new driver generation sharing the directory: no compile.
        store = FileStore(root)
        with SpannerService(
            workers=2, chunk_size=3, artifact_store=store
        ) as warm:
            q_warm = warm.register(WORD_FORMULA)
            assert q_warm == q_cold  # payload bytes identical -> same id
            stats = store.stats()
            assert stats["hits"] == 1 and stats["puts"] == 0
            out_warm = warm.submit(DOCS, queries=q_warm).result()
        assert canonical(out_warm) == canonical(out_cold)
        assert out_warm == word_serial

    def test_session_generations_share_one_store_entry(
        self, tmp_path, word_serial
    ):
        # ParallelSpanner registers a *precompiled* artifact whose
        # pickle bytes differ per process; the session must key the
        # store by its remembered source so a second driver generation
        # warm-hits instead of re-putting under a fresh key.
        from repro.runtime.parallel import ParallelSpanner

        root = tmp_path / "arts"
        with ParallelSpanner(
            WORD_FORMULA, workers=2, artifact_store=FileStore(root)
        ) as cold:
            out_cold = list(cold.evaluate_many(DOCS))
        store = FileStore(root)
        assert store.keys() and all(k.startswith("s") for k in store.keys())
        with ParallelSpanner(
            WORD_FORMULA, workers=2, artifact_store=store
        ) as warm:
            out_warm = list(warm.evaluate_many(DOCS))
            stats = store.stats()
            assert stats["hits"] == 1 and stats["puts"] == 0
        assert len(store.keys()) == 1  # no cache pollution across runs
        assert out_cold == word_serial == out_warm

    def test_register_keys_a_precompiled_artifact_by_its_source(
        self, tmp_path, word_serial
    ):
        # The seam the session rides: register(precompiled, source=...)
        # must revive the entry a plain register(source) wrote — and
        # serve the *stored* bytes, giving the cold generation's id.
        root = tmp_path / "arts"
        with SpannerService(artifact_store=FileStore(root)) as cold:
            q_cold = cold.register(WORD_FORMULA)
        store = FileStore(root)
        with SpannerService(workers=2, artifact_store=store) as warm:
            q_warm = warm.register(
                CompiledSpanner(WORD_FORMULA), source=WORD_FORMULA
            )
            assert q_warm == q_cold
            stats = store.stats()
            assert stats["hits"] == 1 and stats["puts"] == 0
            assert warm.submit(DOCS, queries=q_warm).result() == word_serial

    def test_store_surfaces_in_health(self, tmp_path):
        with SpannerService(
            workers=1, artifact_store=FileStore(tmp_path / "arts")
        ) as service:
            service.register(WORD_FORMULA)
            health = service.health()
            store = health["resources"]["store"]
            assert store["puts"] == 1
            json.dumps(health)  # and the whole snapshot stays loggable

    def test_no_store_means_no_store_section(self):
        with SpannerService(workers=1) as service:
            assert service.health()["resources"]["store"] is None


# -- Corruption recovery ------------------------------------------------------


class TestCorruptionRecovery:
    @pytest.mark.parametrize("hook", ["store_torn_write", "store_corrupt"])
    def test_damaged_entry_recompiled_not_fatal(
        self, tmp_path, word_serial, hook
    ):
        root = tmp_path / "arts"
        plan = getattr(FaultPlan(), hook)(0)  # damage the first put
        with chaos_service(
            workers=2,
            chunk_size=3,
            artifact_store=FileStore(root),
            plan=plan,
        ) as sick:
            qid = sick.register(WORD_FORMULA)  # put lands damaged
            out = sick.submit(DOCS, queries=qid).result()
            assert out == word_serial  # registration itself never relied on it

        # Next generation reads the damaged entry: quarantine + clean
        # recompile, never an error out of register().
        store = FileStore(root)
        with SpannerService(workers=2, chunk_size=3, artifact_store=store) as s:
            q2 = s.register(WORD_FORMULA)
            assert q2 == qid
            stats = store.stats()
            assert stats["corrupt_quarantined"] == 1
            assert stats["puts"] == 1  # the recompiled artifact re-landed
            assert store.quarantined()  # the corpse is kept for forensics
            assert s.submit(DOCS, queries=q2).result() == word_serial

        # And a third generation is fully healthy again.
        store3 = FileStore(root)
        with SpannerService(workers=1, artifact_store=store3) as s3:
            s3.register(WORD_FORMULA)
            assert store3.stats()["hits"] == 1
            assert store3.stats()["corrupt_quarantined"] == 0


# -- Manifest + restore -------------------------------------------------------


class TestRestore:
    def test_restore_is_byte_identical_and_warm(self, tmp_path, word_serial):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(
            workers=2, chunk_size=3, manifest_path=manifest
        )
        qid = service.register(WORD_FORMULA, max_tuples=10_000)
        out1 = service.submit(DOCS, queries=qid).result()
        service.close()

        restored = SpannerService.restore(manifest)
        try:
            assert restored.queries == (qid,)
            stats = restored.artifact_store.stats()
            assert stats["hits"] == 1 and stats["puts"] == 0  # no recompile
            assert restored.workers == 2 and restored.chunk_size == 3
            # The per-query override came back through the manifest.
            assert restored._query_caps[qid][0] == 10_000
            out2 = restored.submit(DOCS, queries=qid).result()
        finally:
            restored.close()
        assert canonical(out2) == canonical(out1)
        assert out2 == word_serial

    def test_restore_overrides_win(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=2, manifest_path=manifest)
        service.register(WORD_FORMULA)
        service.close()
        restored = SpannerService.restore(manifest, workers=3)
        try:
            assert restored.workers == 3
        finally:
            restored.close()

    def test_restore_recompiles_when_the_store_was_emptied(
        self, tmp_path, word_serial
    ):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=2, chunk_size=3,
                                 manifest_path=manifest)
        qid = service.register(WORD_FORMULA)
        service.close()
        for path in (tmp_path / "artifacts").glob("*.art"):
            path.unlink()

        restored = SpannerService.restore(manifest)
        try:
            stats = restored.artifact_store.stats()
            # No warm hit was possible; exactly one recompile re-landed.
            assert stats["hits"] == 0 and stats["puts"] == 1
            assert restored.queries == (qid,)
            assert restored.submit(DOCS, queries=qid).result() == word_serial
        finally:
            restored.close()

    def test_restore_without_artifact_or_source_raises(self, tmp_path):
        # A precompiled registration has no recompilable source: losing
        # its store entry must be a loud SpannerError, not a silent
        # rebuild of a different fleet.
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=1, manifest_path=manifest)
        service.register(CompiledSpanner(WORD_FORMULA))
        service.close()
        for path in (tmp_path / "artifacts").glob("*.art"):
            path.unlink()
        with pytest.raises(SpannerError, match="no recompilable source"):
            SpannerService.restore(manifest)

    def test_restore_reruns_admission_control(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=1, manifest_path=manifest)
        service.register(WORD_FORMULA)
        service.close()
        # Yesterday's fleet admitted it; today's limit must not.
        with pytest.raises(QueryRejectedError):
            SpannerService.restore(manifest, max_compile_states=1)

    def test_restore_rearms_open_quarantines(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(
            workers=1,
            manifest_path=manifest,
            quarantine_after=2,
            quarantine_cooldown=60.0,
        )
        qid = service.register(WORD_FORMULA)
        with service._lock:
            service._record_failure_locked(qid)
            service._record_failure_locked(qid)
        service._flush_manifest()
        assert qid in service.quarantined_queries
        service.close()

        restored = SpannerService.restore(manifest)
        try:
            assert qid in restored.quarantined_queries
            with pytest.raises(QueryQuarantinedError):
                restored.submit(DOCS[:2], queries=qid)
            # The operator escape hatch still works after a restore.
            assert restored.reinstate(qid) is True
            assert restored.submit(DOCS[:2], queries=qid).result() == list(
                CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[:2])
            )
        finally:
            restored.close()

    def test_reinstate_is_durable(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(
            workers=1, manifest_path=manifest, quarantine_after=1
        )
        qid = service.register(WORD_FORMULA)
        with service._lock:
            service._record_failure_locked(qid)
        service._flush_manifest()
        service.reinstate(qid)  # writes the manifest immediately
        service.close()
        restored = SpannerService.restore(manifest)
        try:
            assert restored.quarantined_queries == ()
        finally:
            restored.close()

    def test_unknown_manifest_version_rejected(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=1, manifest_path=manifest)
        service.register(WORD_FORMULA)
        service.close()
        doc = json.loads(manifest.read_text())
        doc["format"] = 999
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SpannerError, match="format"):
            SpannerService.restore(manifest)

    @pytest.mark.parametrize(
        "bad",
        [{"workers": 0}, {"frobnicate": 1}, {"workers": "two"},
         {"encoding": "no-such-codec"}, {"errors": "bogus"},
         {"mp_context": "bogus"}, {"workers": True}, {"chunk_size": 2.5},
         {"task_timeout": float("nan")},
         {"quarantine_cooldown": float("nan")}],
        ids=["out-of-range", "unknown-key", "wrong-type", "unknown-codec",
             "unknown-error-handler", "unknown-start-method", "bool-count",
             "float-count", "nan-timeout", "nan-cooldown"],
    )
    def test_malformed_manifest_config_rejected(self, tmp_path, bad):
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=1, manifest_path=manifest)
        service.register(WORD_FORMULA)
        service.close()
        doc = json.loads(manifest.read_text())
        doc["config"].update(bad)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SpannerError, match="invalid config"):
            SpannerService.restore(manifest)

    def test_manifest_from_an_earlier_build_restores(self, tmp_path):
        """``fixtures/manifest_v2.json`` was journaled by the build before
        the config became a dataclass (workers=1, one syntax query,
        task_timeout=5.0, max_tuples=1000).  It restores, serves, and
        re-journals the same config: same keys, order and values."""
        manifest = tmp_path / "fleet.json"
        shutil.copy(FIXTURES / "manifest_v2.json", manifest)
        recorded = json.loads(manifest.read_text())
        (entry,) = recorded["queries"]
        restored = SpannerService.restore(manifest)
        try:
            assert restored.queries == (entry["query_id"],)
            rejournaled = json.loads(manifest.read_text())
            assert list(rejournaled["config"].items()) == list(
                recorded["config"].items()
            )
            out = restored.submit(DOCS[:4], queries=entry["query_id"])
            assert out.result(timeout=120) == list(
                CompiledSpanner(entry["source"]["data"]).evaluate_many(
                    DOCS[:4]
                )
            )
        finally:
            restored.close()

    def test_unreadable_manifest_rejected(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(SpannerError, match="unreadable"):
            SpannerService.restore(missing)
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(SpannerError, match="unreadable"):
            SpannerService.restore(garbled)

    def test_restore_precompiled_equality_query(self, tmp_path):
        from repro.queries import CompiledEvaluator, RegexCQ

        query = RegexCQ(
            ["x", "y"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
            equalities=[["x", "y"]],
        )
        engine = CompiledEvaluator().equality_runtime(query)
        assert engine is not None
        docs = ["ab ab b", "aa bb aa", "no match 42"]
        manifest = tmp_path / "fleet.json"
        service = SpannerService(workers=2, manifest_path=manifest)
        qid = service.register(engine, query_id="eq")
        out1 = service.submit(docs, queries=qid).result()
        service.close()

        restored = SpannerService.restore(manifest)
        try:
            assert restored.artifact_store.stats()["hits"] == 1
            out2 = restored.submit(docs, queries=qid).result()
        finally:
            restored.close()
        assert canonical(out2) == canonical(out1)


# -- kill -9 mid-stream -------------------------------------------------------

_KILL_CHILD = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from chaos import FaultPlan, chaos_service

plan = FaultPlan().driver_kill(after_tasks=1)
service = chaos_service(
    workers=2,
    chunk_size=1,
    transport="shm",
    manifest_path={manifest!r},
    plan=plan,
)
service.start()
qid = service.register({formula!r}, query_id="words")
docs = ["say hi ho " + "x" * 256] * 8
futures = [service.submit_chunk(qid, [doc]) for doc in docs]
for future in futures:
    future.result()
print("UNREACHABLE: the driver_kill hook never fired", flush=True)
sys.exit(3)
"""


@pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)
class TestDriverKill:
    def test_kill9_restore_parity_and_shm_sweep(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        script = _KILL_CHILD.format(
            src=os.path.abspath(SRC),
            tests=TESTS,
            manifest=str(manifest),
            formula=WORD_FORMULA,
        )
        before = dev_shm_segments()
        # Orphaned workers inherit the driver's stdio, so piping +
        # communicate() would block on EOF forever: log to files and
        # wait() on the driver alone.
        log = (tmp_path / "child.log").open("wb")
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            start_new_session=True,
            stdout=log,
            stderr=log,
        )
        try:
            child.wait(timeout=90)
        finally:
            log.close()
            # Reap whatever the dead driver left behind (workers that
            # were blocked on their task queues when it was killed).
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        assert child.returncode == -signal.SIGKILL, (
            child.returncode,
            (tmp_path / "child.log").read_text(errors="replace"),
        )
        # The crash stranded segments: no close(), no finalizer ran.
        orphans = dev_shm_segments() - before
        assert orphans, "expected the SIGKILLed driver to strand segments"
        # The manifest survived the crash (it is journaled at register
        # time, before any task flowed).
        doc = json.loads(manifest.read_text())
        assert [q["query_id"] for q in doc["queries"]] == ["words"]

        restored = SpannerService.restore(manifest)
        try:
            # Startup swept the dead session's segments...
            assert not (dev_shm_segments() & orphans)
            assert restored.health()["resources"]["orphans_swept"] >= len(
                orphans
            )
            # ...the artifact revived without recompilation...
            stats = restored.artifact_store.stats()
            assert stats["hits"] == 1 and stats["puts"] == 0
            # ...and the restored fleet serves byte-identical results.
            docs = ["say hi ho " + "x" * 256] * 8
            out2 = restored.submit(docs, queries="words").result()
            expected = list(
                CompiledSpanner(WORD_FORMULA).evaluate_many(docs)
            )
            assert canonical(out2) == canonical(expected)
        finally:
            restored.close()
        # The restored fleet's own shutdown leaves /dev/shm clean too.
        assert not (dev_shm_segments() - before)
