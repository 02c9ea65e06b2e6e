"""The ComputeBackend contract, exercised per concrete backend.

``SpannerService`` is pure policy since PR 10; everything substrate-
specific — spawning, artifact shipment, dispatch, kill-and-replace —
lives behind :class:`~repro.runtime.backends.ComputeBackend`.  These
tests pin the parts of that contract the parity suites cannot see from
the outside:

* the compiled artifact is shipped **at most once per (worker, query)
  lifetime**, whatever the backend means by "ship" (pickled bytes over
  a queue for processes, a shared materialized engine for threads and
  the inline worker);
* a killed/crashed worker is replaced and the fleet converges with **no
  tuple lost and none duplicated**;
* backend selection: ``"auto"`` resolution, the resolved name in
  ``health()`` and the manifest, and restore onto the recorded
  substrate (with override).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.runtime import (
    BACKEND_NAMES,
    CompiledSpanner,
    SpannerService,
    default_backend_name,
)
from repro.runtime.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.runtime.backends.process import ProcessWorkerHandle

from chaos import FaultPlan, chaos_service
from test_service import BACKENDS, DOCS, WORD_FORMULA, canonical


def _die_holding_heartbeat_lock(heartbeat) -> None:
    heartbeat.get_lock().acquire()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


class TestResolution:
    def test_names_and_classes(self):
        assert BACKEND_NAMES == ("auto", "serial", "thread", "process")
        assert isinstance(resolve_backend("serial", workers=1), SerialBackend)
        assert isinstance(resolve_backend("thread", workers=2), ThreadBackend)
        assert isinstance(
            resolve_backend("process", workers=2), ProcessBackend
        )

    def test_auto_resolves_to_a_concrete_backend(self):
        assert default_backend_name() in ("thread", "process")
        backend = resolve_backend("auto", workers=2)
        assert backend.name == default_backend_name()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fiber", workers=2)
        with pytest.raises(ValueError, match="backend"):
            SpannerService(workers=2, backend="fiber")

    def test_flags_per_backend(self):
        for name, model, kill, wire, inline in (
            ("serial", "inline", False, False, True),
            ("thread", "thread", True, False, False),
            ("process", "process", True, True, False),
        ):
            backend = resolve_backend(name, workers=2)
            assert backend.worker_model == model
            assert backend.supports_kill is kill
            assert backend.uses_wire_transport is wire
            assert backend.inline is inline


class TestArtifactShippedOnce:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_at_most_one_shipment_per_worker_lifetime(
        self, word_serial, backend
    ):
        """Many chunks, one query: the artifact payload rides along
        with at most one dispatched task per worker, whatever "payload"
        means on this substrate."""
        shipments: list[tuple[int, bool]] = []
        with SpannerService(
            workers=2, chunk_size=2, backend=backend
        ) as service:
            inner = service._backend
            original = inner.dispatch

            def spying_dispatch(worker, msg):
                # msg[4]: one shipment slot per member, None = held.
                shipped = any(slot is not None for slot in msg[4])
                shipments.append((worker.worker_id, shipped))
                original(worker, msg)

            inner.dispatch = spying_dispatch
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(3):
                out = service.submit(DOCS, queries=qid).result(timeout=120)
                assert canonical(out) == canonical(word_serial)
        assert len(shipments) >= 3 * (len(DOCS) // 2)
        per_worker: dict[int, int] = {}
        for worker_id, shipped in shipments:
            if shipped:
                per_worker[worker_id] = per_worker.get(worker_id, 0) + 1
        # Every worker that got the artifact got it exactly once.
        assert per_worker and all(n == 1 for n in per_worker.values())

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_shared_backends_materialize_once(self, backend):
        """Thread and inline workers share one materialized engine per
        query — respawns and re-shipments reuse it by identity."""
        with SpannerService(
            workers=2, chunk_size=2, max_tasks_per_worker=1, backend=backend
        ) as service:
            inner = service._backend
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            service.submit(DOCS, queries=qid).result(timeout=120)
            assert service.workers_recycled > 0  # several worker lifetimes
            payload = service._registry.payloads[str(qid)]
            engine = inner.prepare_payload(str(qid), payload)
            assert inner.prepare_payload(str(qid), payload) is engine
            assert list(inner._engines) == [str(qid)]


class TestKillAndReplace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_replaces_worker_no_loss_no_dup(self, word_serial, backend):
        """An injected worker death mid-batch: the fleet replaces the
        worker and the output is byte-identical — nothing lost to the
        crash, nothing duplicated by the re-dispatch."""
        plan = FaultPlan().crash(task=1, attempts=(1,))
        with chaos_service(
            workers=2, chunk_size=2, plan=plan, backend=backend
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert service.workers_crashed >= 1
            health = service.health()
            assert health["backend"]["name"] == backend
            assert len(health["workers"]) == 2  # back at full strength
            # The replaced fleet still serves.
            again = service.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(again) == canonical(word_serial)

    def test_heartbeat_read_survives_worker_killed_mid_stamp(self):
        """SIGKILL can land while a worker holds its heartbeat lock; the
        driver's read must still return instead of wedging the
        collector (and health()) forever."""
        ctx = multiprocessing.get_context()
        heartbeat = ctx.Array("d", [7.0, 1.5, 2.5, -1.0])
        proc = ctx.Process(
            target=_die_holding_heartbeat_lock, args=(heartbeat,)
        )
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        handle = ProcessWorkerHandle(0, proc, None, heartbeat, None)
        assert handle.read_heartbeat() == (7, 1.5, 2.5, -1)

    def test_serial_backend_refuses_kill(self):
        backend = resolve_backend("serial", workers=1)
        worker = backend.spawn_worker()
        with pytest.raises(AssertionError):
            backend.kill_worker(worker)


class TestManifestBackend:
    def test_manifest_records_resolved_backend_and_restores(
        self, tmp_path, word_serial
    ):
        import json

        manifest = str(tmp_path / "manifest.json")
        with SpannerService(
            workers=1, backend="auto", manifest_path=manifest
        ) as service:
            assert service.backend == default_backend_name()  # resolved
            qid = str(service.register(CompiledSpanner(WORD_FORMULA)))
            service.submit(DOCS, queries=qid).result(timeout=120)
        doc = json.loads(open(manifest).read())
        assert doc["format"] == 2
        assert doc["config"]["backend"] == default_backend_name()

        revived = SpannerService.restore(manifest)
        try:
            assert revived.backend == default_backend_name()
            out = revived.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
        finally:
            revived.close()

        overridden = SpannerService.restore(manifest, backend="serial")
        try:
            assert overridden.backend == "serial"
            out = overridden.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
        finally:
            overridden.close()

    def test_v1_manifest_read_as_process_backend(self, tmp_path):
        """Migration: pre-PR-10 manifests carry no backend; they are
        restored onto the process fleet (the only substrate that
        existed when they were written) — overridable as usual."""
        import json

        manifest = str(tmp_path / "manifest.json")
        with SpannerService(
            workers=1, backend="serial", manifest_path=manifest
        ) as service:
            service.register(CompiledSpanner(WORD_FORMULA))
        doc = json.loads(open(manifest).read())
        doc["format"] = 1
        doc["config"].pop("backend")
        open(manifest, "w").write(json.dumps(doc))

        revived = SpannerService.restore(manifest)
        try:
            assert revived.backend == "process"
        finally:
            revived.close()
        overridden = SpannerService.restore(manifest, backend="thread")
        try:
            assert overridden.backend == "thread"
        finally:
            overridden.close()
