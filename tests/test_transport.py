"""Tests for the shared-memory document transport (`repro.runtime.transport`).

The contract: a packed chunk round-trips byte-identically through a
shared-memory segment (any codec, empty documents included); segment
lifetime is explicit — refcounted in flight, recycled through the free
pool on release, unlinked by the owner on close, never left in
``/dev/shm``; the ``auto`` negotiation falls back to the pipe below the
size threshold and on platforms without POSIX shm; and the ``mmap``
read path decodes files identically to a plain read.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.runtime import transport as transport_module
from repro.runtime.transport import (
    ShmChunk,
    SharedMemoryTransport,
    TransportUnavailableError,
    create_transport,
    open_chunk,
    read_document,
    release_chunk,
    shm_available,
)

from chaos import fail_packs

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

DOCS = ["say hi ho", "", "a1bc2", "ümläut ẞtreet", "x" * 10_000]


def dev_shm_segments() -> set[str]:
    """This engine's segments currently present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {os.path.basename(p) for p in glob.glob("/dev/shm/sjdoc-*")}


class TestPackRoundTrip:
    def test_documents_round_trip_byte_identically(self):
        t = SharedMemoryTransport(force=True)
        try:
            ref = t.pack(DOCS)
            assert isinstance(ref, ShmChunk)
            view = open_chunk(ref)
            assert list(view) == DOCS
            assert [view[i] for i in range(len(view))] == DOCS
            release_chunk(view)
        finally:
            t.close()

    def test_empty_documents_keep_their_slots(self):
        t = SharedMemoryTransport(force=True)
        try:
            docs = ["", "", "a", ""]
            view = open_chunk(t.pack(docs))
            assert list(view) == docs
            release_chunk(view)
        finally:
            t.close()

    def test_wire_codec_is_lossless_whatever_the_file_codec(self):
        # The wire codec is a fixed lossless constant: non-ASCII text
        # and even lone surrogates (surrogateescape-decoded files)
        # round-trip exactly — the worker must evaluate the exact
        # string the serial path would, never a re-encoded lossy copy.
        from repro.runtime.transport import WIRE_ENCODING

        t = SharedMemoryTransport(force=True)
        try:
            docs = ["café", "naïve £5", "stray\udce9byte", "汉字"]
            ref = t.pack(docs)
            assert ref.encoding == WIRE_ENCODING
            view = open_chunk(ref)
            assert list(view) == docs
            release_chunk(view)
        finally:
            t.close()

    def test_pipe_payload_passes_through(self):
        items = ["a", "b"]
        assert open_chunk(items) is items
        release_chunk(items)  # no-op, must not raise


class TestNegotiation:
    def test_below_threshold_stays_on_the_pipe(self):
        t = SharedMemoryTransport(threshold=1024)
        try:
            assert t.pack(["tiny", "docs"]) is None
            assert t.live_segments() == ()
        finally:
            t.close()

    def test_above_threshold_packs(self):
        t = SharedMemoryTransport(threshold=1024)
        try:
            ref = t.pack(["x" * 2048])
            assert isinstance(ref, ShmChunk)
            assert len(t.live_segments()) == 1
            t.release(ref)
        finally:
            t.close()

    def test_multibyte_indeterminate_band_measures_real_bytes(self):
        # 600 chars of a 2-byte character: the char count (600) is
        # under a 1000-byte threshold but the encoded payload (1200)
        # is over it — the negotiation must encode to find out.
        t = SharedMemoryTransport(threshold=1000)
        try:
            ref = t.pack(["é" * 600])
            assert isinstance(ref, ShmChunk)
            t.release(ref)
            assert t.pack(["é" * 400]) is None  # 800 bytes: pipe
        finally:
            t.close()

    def test_create_transport_modes(self):
        assert create_transport("pipe") is None
        t = create_transport("shm")
        assert t is not None and t.force
        t.close()
        t = create_transport("auto", shm_threshold=123)
        assert t is not None and not t.force and t.threshold == 123
        t.close()
        with pytest.raises(ValueError):
            create_transport("carrier-pigeon")

    def test_unavailable_platform_falls_back_or_raises(self, monkeypatch):
        monkeypatch.setattr(transport_module, "shm_available", lambda: False)
        assert transport_module.create_transport("auto") is None
        with pytest.raises(TransportUnavailableError):
            transport_module.create_transport("shm")


class TestSegmentLifetime:
    def test_refcount_release_recycles_then_close_unlinks(self):
        t = SharedMemoryTransport(force=True)
        try:
            ref = t.pack(["payload"] * 4)
            assert ref.segment in dev_shm_segments()
            t.acquire(ref)
            t.release(ref)
            assert t.live_segments() == (ref.segment,)  # still one ref
            t.release(ref)
            assert t.live_segments() == ()
            # Released, not destroyed: pooled for the next chunk.
            assert ref.segment in t.pooled_segments()
            assert ref.segment in dev_shm_segments()
        finally:
            t.close()
        assert ref.segment not in dev_shm_segments()

    def test_pool_reuses_segments_of_the_same_size_class(self):
        t = SharedMemoryTransport(force=True)
        try:
            first = t.pack(["a" * 5000])
            t.release(first)
            second = t.pack(["b" * 5000])
            assert second.segment == first.segment  # recycled, not new
            view = open_chunk(second)
            assert list(view) == ["b" * 5000]
            release_chunk(view)
            t.release(second)
        finally:
            t.close()
        assert not dev_shm_segments() & {first.segment}

    def test_release_is_idempotent_past_zero(self):
        t = SharedMemoryTransport(force=True)
        try:
            ref = t.pack(["doc"])
            t.release(ref)
            t.release(ref)  # no-op, must not raise or double-free
        finally:
            t.close()

    def test_close_sweeps_in_flight_segments(self):
        t = SharedMemoryTransport(force=True)
        ref = t.pack(["doc"] * 3)
        assert ref.segment in dev_shm_segments()
        t.close()  # task never resolved — the sweep must still unlink
        assert ref.segment not in dev_shm_segments()


class TestBudgetGovernance:
    """The shm capacity budget: overruns degrade to the pipe, the pool
    yields its reservation to live traffic, and degraded episodes never
    confuse segment accounting or the close() sweep."""

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SharedMemoryTransport(budget=0)
        t = create_transport("shm", shm_budget=123)
        try:
            assert t.budget == 123
        finally:
            t.close()
        assert create_transport("auto", shm_budget=None).budget is None

    def test_oversized_chunk_degrades_to_pipe(self):
        t = SharedMemoryTransport(force=True, budget=8192)
        try:
            # 20000 bytes → 32768-byte size class: cannot ever fit.
            assert t.pack(["x" * 20000]) is None
            stats = t.stats()
            assert stats["degraded_to_pipe"] == 1
            assert stats["bytes_in_flight"] == 0
            # A chunk that fits still takes the fast path.
            ref = t.pack(["x" * 2000])
            assert isinstance(ref, ShmChunk)
            assert t.stats()["bytes_in_flight"] == 4096
            t.release(ref)
        finally:
            t.close()
        assert not dev_shm_segments()

    def test_pool_yields_budget_to_live_traffic(self):
        t = SharedMemoryTransport(force=True, budget=8192)
        try:
            first = t.pack(["a" * 3000])  # 4096-byte class
            t.release(first)  # pooled: still holds its reservation
            assert t.stats()["bytes_pooled"] == 4096
            # 8192-byte class would overrun 4096+8192 > 8192: the idle
            # pooled segment is evicted (destroyed) to make room.
            second = t.pack(["b" * 6000])
            assert isinstance(second, ShmChunk)
            stats = t.stats()
            assert stats["degraded_to_pipe"] == 0
            assert stats["bytes_pooled"] == 0
            assert stats["bytes_in_flight"] == 8192
            assert first.segment not in dev_shm_segments()
            view = open_chunk(second)
            assert list(view) == ["b" * 6000]
            release_chunk(view)
            t.release(second)
        finally:
            t.close()
        assert not dev_shm_segments()

    def test_injected_enospc_counts_and_falls_back(self):
        t = SharedMemoryTransport(force=True)
        try:
            fail_packs(t, {0, 2})
            assert t.pack(["doc"]) is None  # pack 0: injected failure
            ref = t.pack(["doc"])  # pack 1: healthy
            assert isinstance(ref, ShmChunk)
            assert t.pack(["doc"]) is None  # pack 2: injected failure
            assert t.stats()["degraded_to_pipe"] == 2
            t.release(ref)
        finally:
            t.close()
        assert not dev_shm_segments()

    def test_close_during_degraded_episode_unlinks_everything(self):
        """A close landing mid-degradation (live segment held by an
        unresolved task, later chunks riding the pipe) must still
        unlink every owned segment — degraded chunks own nothing, so
        they must not shadow the ones that do."""
        t = SharedMemoryTransport(force=True, budget=64 * 1024)
        fail_packs(t, {1})
        ref = t.pack(["payload"] * 8)  # in flight, never released
        assert isinstance(ref, ShmChunk)
        assert t.pack(["degraded"] * 8) is None  # the episode
        assert t.stats()["degraded_to_pipe"] == 1
        t.close()
        assert not dev_shm_segments()
        stats = t.stats()
        assert stats["bytes_in_flight"] == 0
        assert stats["bytes_pooled"] == 0


class TestOrphanJanitor:
    """Session attribution + the crash-orphan sweep: segments name
    their owning driver, a pidfile backs the liveness check, the sweep
    reaps only dead sessions, and the ``weakref.finalize`` hook keeps
    clean-but-forgetful exits off the janitor's plate entirely."""

    def test_segments_carry_session_tag_backed_by_pidfile(self):
        t = SharedMemoryTransport(force=True)
        try:
            ref = t.pack(["payload"] * 4)
            assert ref.segment.startswith(f"sjdoc-{t.session}-")
            pidfile = os.path.join(
                transport_module._session_dir(), f"{t.session}.pid"
            )
            with open(pidfile) as handle:
                assert int(handle.read().split()[0]) == os.getpid()
            t.release(ref)
        finally:
            t.close()
        # close() retires the liveness record along with the segments.
        assert not os.path.exists(pidfile)

    def test_sweep_never_reaps_a_live_session(self):
        from repro.runtime.transport import sweep_orphaned_segments

        t = SharedMemoryTransport(force=True)
        try:
            ref = t.pack(["payload"] * 4)  # in flight, owner alive
            swept = sweep_orphaned_segments()
            assert ref.segment not in swept
            assert ref.segment in dev_shm_segments()
            view = open_chunk(ref)  # still attachable and intact
            assert list(view) == ["payload"] * 4
            release_chunk(view)
            t.release(ref)
        finally:
            t.close()

    def test_orphan_without_pidfile_is_swept(self):
        from repro.runtime.transport import (
            _create_untracked,
            sweep_orphaned_segments,
        )

        # A segment tagged with a session that never wrote a pidfile is
        # by definition a crash leftover (drivers write the pidfile
        # before their first segment).
        name = "sjdoc-sdeadbeef-999"
        segment = _create_untracked(name, 64)
        segment.close()
        try:
            swept = sweep_orphaned_segments()
            assert name in swept
            assert name not in dev_shm_segments()
        finally:
            if name in dev_shm_segments():  # pragma: no cover - cleanup
                segment.unlink()

    def test_dead_pid_session_swept_and_pidfile_pruned(self):
        import subprocess
        import sys

        from repro.runtime.transport import (
            _create_untracked,
            sweep_orphaned_segments,
        )

        # Borrow a genuinely dead pid from a finished child.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        tag = "s0feedbeef"
        pidfile = os.path.join(
            transport_module._session_dir(), f"{tag}.pid"
        )
        with open(pidfile, "w") as handle:
            handle.write(f"{child.pid}\n")
        name = f"sjdoc-{tag}-1"
        segment = _create_untracked(name, 64)
        segment.close()
        try:
            swept = sweep_orphaned_segments()
            assert name in swept
            assert not os.path.exists(pidfile)  # stale record pruned
        finally:
            if name in dev_shm_segments():  # pragma: no cover - cleanup
                segment.unlink()

    def test_startup_sweep_counts_in_stats(self):
        from repro.runtime.transport import _create_untracked

        name = "sjdoc-scafef00d-7"
        segment = _create_untracked(name, 64)
        segment.close()
        t = SharedMemoryTransport(force=True)
        try:
            assert name not in dev_shm_segments()
            assert t.stats()["orphans_swept"] >= 1
        finally:
            t.close()

    def test_finalizer_unlinks_on_interpreter_exit_without_close(self):
        import subprocess
        import sys

        # A driver that packs and exits normally without ever calling
        # close(): weakref.finalize/atexit must unlink its segments —
        # the janitor is for kill -9, not for forgetfulness.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.runtime.transport import SharedMemoryTransport\n"
            "t = SharedMemoryTransport(force=True)\n"
            "ref = t.pack(['payload'] * 8)\n"
            "print(ref.segment, flush=True)\n"
            # no t.close(), no release: fall off the end.
        ) % os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        name = out.stdout.strip()
        assert name.startswith("sjdoc-")
        assert name not in dev_shm_segments()

    def test_sigkilled_driver_strands_then_sweep_reaps(self):
        import signal
        import subprocess
        import sys

        from repro.runtime.transport import sweep_orphaned_segments

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = (
            "import os, signal, sys; sys.path.insert(0, %r)\n"
            "from repro.runtime.transport import SharedMemoryTransport\n"
            "t = SharedMemoryTransport(force=True)\n"
            "ref = t.pack(['payload'] * 8)\n"
            "print(ref.segment, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        ) % os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == -signal.SIGKILL
        name = out.stdout.strip()
        # No hook could run: the segment is stranded...
        assert name in dev_shm_segments()
        # ...until the janitor attributes it to a dead session.
        assert name in sweep_orphaned_segments()
        assert name not in dev_shm_segments()


class TestReadDocument:
    def test_mmap_and_plain_reads_agree(self, tmp_path):
        path = tmp_path / "doc.txt"
        text = "läne one\nline two\n" * 500
        path.write_text(text, encoding="utf-8")
        plain = read_document(str(path), mmap_threshold=10**9)
        mapped = read_document(str(path), mmap_threshold=1)
        assert plain == mapped == text

    def test_latin1_and_error_handlers(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_bytes(b"caf\xe9 society")
        with pytest.raises(UnicodeDecodeError):
            read_document(str(path))
        assert read_document(str(path), encoding="latin-1") == "café society"
        assert (
            read_document(str(path), errors="replace") == "caf� society"
        )
        # The mmap path honors the same codec knobs.
        assert (
            read_document(str(path), encoding="latin-1", mmap_threshold=1)
            == "café society"
        )

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_document(str(tmp_path / "absent.txt"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_document(str(path), mmap_threshold=0) == ""
