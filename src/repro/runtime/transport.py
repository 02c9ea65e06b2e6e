"""Shared-memory document transport: corpus bytes off the task pipe.

The fleet (:mod:`repro.runtime.service`) ships every in-memory document
to its worker as part of the pickled task message — through a
``multiprocessing`` queue, i.e. a pickle, a feeder thread, an OS pipe
write, a pipe read and an unpickle per chunk.  For corpora of large
documents that per-chunk copy chain is the dominant non-evaluation
cost the compile-once model leaves on the table (``evaluate_files``
already avoids it for file-backed corpora by shipping paths).

:class:`SharedMemoryTransport` takes the bytes out of the pipe: a chunk
of documents is packed **chunk-at-a-time** into one POSIX
``multiprocessing.shared_memory`` segment with an offset/length index,
and the task message carries only a tiny :class:`ShmChunk` reference
``(segment name, index, encoding)``.  The worker attaches the segment,
decodes each document **lazily** straight out of the shared buffer (one
decode, no intermediate pickle/pipe copies), and detaches when the task
is done.

Segment lifetime is explicit — **no reliance on GC**:

* the driver owns every segment it creates and holds a reference count
  per segment (one per unresolved task that names it; crash
  re-dispatch re-uses the same segment, so a re-run task never re-packs
  or re-ships document bytes);
* a worker's result message is its release handshake: when the task
  resolves — result, failure, cancellation, or fleet shutdown — the
  owner drops the reference; at zero the segment is *recycled* into a
  bounded free pool for the next chunk of its size class (a
  ``shm_open``/``mmap``/``shm_unlink`` round per chunk costs more than
  the copy it saves — reuse is what makes the transport win), or
  unlinked when the pool is full;
* :meth:`SharedMemoryTransport.close` unlinks everything — pooled and
  in-flight alike — so no ``/dev/shm`` entry survives a fleet close, a
  worker crash/recycle, or an abandoned streaming session; a
  ``weakref.finalize`` hook runs the same sweep on GC and at normal
  interpreter exit, so a driver that never calls ``close()`` still
  leaves ``/dev/shm`` clean;
* the one exit no in-process hook covers — ``kill -9`` of the driver —
  is handled by attribution instead: segment names carry a per-driver
  *session tag* backed by a pidfile, and the **orphan janitor**
  (:func:`sweep_orphaned_segments`, run at transport startup and by
  ``spanner-join cache gc``) unlinks segments whose owning driver is
  dead, never a live session's;
* both sides opt out of Python's ``resource_tracker`` (``track=False``
  where available, registration suppressed/retracted before): a
  *worker* exiting — cleanly, recycled, or killed — can never unlink a
  segment other tasks still read (the well-known spawn-mode tracker
  bug), and the *driver's* tracker — which outlives a SIGKILLed driver
  — can never race the janitor by unlinking crash orphans itself;
  workers cache a bounded number of attachments, so a recycled segment
  name re-arrives already mapped.

Negotiation (:func:`create_transport` + :meth:`pack`): ``"pipe"``
disables the layer, ``"shm"`` forces it (raising
:class:`TransportUnavailableError` where POSIX shared memory is
missing), and ``"auto"`` uses shared memory only for chunks whose
encoded payload reaches ``shm_threshold`` bytes — below that the pipe's
fixed costs win and the chunk rides the task message as before.

Graceful degradation (PR 7): segment *allocation* can fail —
``/dev/shm`` is a bounded filesystem (``ENOSPC``), and a ``budget``
caps how many bytes this transport may hold across in-flight and
pooled segments combined.  Either way :meth:`pack` returns ``None``
(the chunk rides the pipe, exactly as if it had lost the size
negotiation), counts the degradation in :meth:`stats`, and shrinks the
free pool first so pooled-but-idle segments yield their budget to live
traffic.  Degradation is per chunk and never fatal — even a forced
``"shm"`` transport degrades rather than failing the submission,
because the caller asked for a fast path, not an outage.

Huge *file-backed* documents get the third path: :func:`read_document`
decodes large files straight from an ``mmap`` window instead of
materializing an intermediate ``bytes`` copy — the worker-side read
``evaluate_files`` / ``submit_files`` and the serial path share.
"""

from __future__ import annotations

import errno
import mmap
import os
import tempfile
import threading
import weakref
from itertools import count
from typing import Iterator, NamedTuple, Sequence

from ..errors import SpannerError, TransientTaskError

try:  # pragma: no cover - import guard for platforms without POSIX shm
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "MMAP_THRESHOLD",
    "ShmChunk",
    "ShmDocumentView",
    "SharedMemoryTransport",
    "TransportUnavailableError",
    "create_transport",
    "read_document",
    "shm_available",
    "sweep_orphaned_segments",
]

#: "auto" negotiation: chunks whose encoded payload is smaller than this
#: ride the task pipe — the pipe's fixed per-chunk cost beats a segment
#: create below it, and shared memory wins above it (measured by the
#: E13f table in ``benchmarks/bench_e13_runtime.py``).
DEFAULT_SHM_THRESHOLD = 64 * 1024

#: Files at least this large are decoded straight from an ``mmap``
#: window by :func:`read_document` instead of an intermediate
#: ``bytes`` materialization via ``read()``.
MMAP_THRESHOLD = 4 * 1024 * 1024

#: Transport modes accepted everywhere a ``transport=`` knob exists.
TRANSPORT_MODES = ("auto", "shm", "pipe")

#: Segment-name prefix: lets tests (and operators) spot this engine's
#: segments in ``/dev/shm`` unambiguously.
_SEGMENT_PREFIX = "sjdoc"

#: Where ``/dev/shm`` lives when POSIX shm is file-backed (Linux).  The
#: orphan janitor can only *enumerate* segments through the filesystem,
#: so sweeping is a Linux capability; elsewhere it is a clean no-op.
_DEV_SHM = "/dev/shm"

#: How many released segments a transport keeps mapped for reuse, and
#: how many attachments a worker keeps cached.  Small on purpose: one
#: fleet rarely has more than ``workers * prefetch`` chunks in any
#: state at once, and every pooled segment pins its pages.
_POOL_SEGMENTS = 8
_ATTACH_CACHE_SEGMENTS = 8

_segment_ids = count()


class TransportUnavailableError(SpannerError):
    """``transport="shm"`` was forced on a platform without POSIX shm."""


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    return _shared_memory is not None


# -- The orphan janitor --------------------------------------------------------
#
# A SIGKILLed driver gets no chance to run close(), finalizers or atexit
# hooks, so its segments survive in /dev/shm forever — the one leak the
# in-process lifetime contract cannot cover.  The fix is attribution:
# every transport mints a *session tag* (embedded in each segment name)
# and records its pid in a pidfile under <tmp>/sjdoc-sessions/, written
# before the first segment can exist.  Any process can then decide, for
# any sjdoc segment, whether the owning driver is still alive — and
# reap it when it is not.  Sweeps run at transport startup and from
# `spanner-join cache gc`.


def _session_dir() -> str:
    path = os.path.join(tempfile.gettempdir(), f"{_SEGMENT_PREFIX}-sessions")
    os.makedirs(path, exist_ok=True)
    return path


def _new_session_tag() -> str:
    # Leading letter on purpose: a legacy segment name embedded the pid
    # where the tag now sits, and the sweeper falls back to "tag is a
    # pid" for all-digit tags without a pidfile — a random tag must
    # never be mistakable for one.
    return "s" + os.urandom(4).hex()


def _start_ticks(pid: int) -> int | None:
    """The process's kernel start time (clock ticks since boot), or
    ``None`` where /proc is unavailable.  Stable across the process's
    lifetime and different for a reused pid — the disambiguator that
    keeps a pidfile from vouching for a stranger."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
        # Fields after the parenthesized comm (which may itself contain
        # spaces); starttime is overall field 22 == post-comm index 19.
        return int(stat.rsplit(b") ", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return None


def _pid_alive(pid: int, ticks: int | None) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # exists, owned by someone else
    except OSError:  # pragma: no cover - unknown failure: never reap
        return True
    if ticks is not None:
        current = _start_ticks(pid)
        if current is not None and current != ticks:
            return False  # the pid was reused by a different process
    return True


def _write_pidfile(tag: str) -> str:
    path = os.path.join(_session_dir(), f"{tag}.pid")
    ticks = _start_ticks(os.getpid())
    data = f"{os.getpid()} {'' if ticks is None else ticks}".strip() + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def _remove_pidfile(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _session_alive(tag: str) -> bool:
    """Whether the driver that owns session ``tag`` is still running.

    The pidfile is the liveness record; without one, an all-digit tag
    is treated as a legacy pid-embedded name and checked directly, and
    anything else is an orphan (its driver wrote a pidfile once — only
    death or ``cache gc`` removes it).
    """
    pidfile = os.path.join(_session_dir(), f"{tag}.pid")
    try:
        with open(pidfile) as handle:
            fields = handle.read().split()
        pid = int(fields[0])
        ticks = int(fields[1]) if len(fields) > 1 else None
    except (OSError, ValueError, IndexError):
        if tag.isdigit():
            return _pid_alive(int(tag), None)
        return False
    return _pid_alive(pid, ticks)


def sweep_orphaned_segments() -> list[str]:
    """Unlink sjdoc segments whose owning driver is dead.

    Returns the names swept.  Runs from transport startup and from the
    ``cache gc`` CLI; a platform without a filesystem-backed
    ``/dev/shm`` cannot enumerate segments and sweeps nothing.  Live
    sessions are never touched: a segment is reaped only when its
    session's pidfile names a dead (or reused) pid, or when it has no
    pidfile at all — and every live driver writes its pidfile before
    creating its first segment.  Stale pidfiles of dead sessions are
    pruned in the same pass.
    """
    if not os.path.isdir(_DEV_SHM):
        return []
    swept = []
    alive: dict[str, bool] = {}
    for name in sorted(os.listdir(_DEV_SHM)):
        if not name.startswith(_SEGMENT_PREFIX + "-"):
            continue
        parts = name.split("-")
        if len(parts) < 3:
            continue
        tag = parts[1]
        if tag not in alive:
            alive[tag] = _session_alive(tag)
        if alive[tag]:
            continue
        try:
            os.unlink(os.path.join(_DEV_SHM, name))
        except OSError:  # pragma: no cover - raced another sweeper
            continue
        swept.append(name)
    try:
        session_dir = _session_dir()
        for entry in os.listdir(session_dir):
            if not entry.endswith(".pid"):
                continue
            tag = entry[: -len(".pid")]
            if tag not in alive:
                alive[tag] = _session_alive(tag)
            if not alive[tag]:
                _remove_pidfile(os.path.join(session_dir, entry))
    except OSError:  # pragma: no cover - tempdir raced away
        pass
    return swept


def _finalize_session(segments: dict, pool: dict, pidfile: str) -> None:
    """Unlink whatever the transport still owns and drop its pidfile.

    The one sweep: ``close()`` runs it, and ``weakref.finalize`` runs it
    again on GC *and* at normal interpreter exit, so a driver that
    forgets ``close()`` still leaves ``/dev/shm`` clean.  It empties
    the dicts, so a second run unlinks only what was packed since."""
    leftovers = [entry[0] for entry in segments.values()]
    segments.clear()
    for bucket in pool.values():
        leftovers.extend(bucket)
    pool.clear()
    for segment in leftovers:
        try:
            segment.close()
            _unlink_untracked(segment)
        except Exception:
            pass
    _remove_pidfile(pidfile)


def create_transport(
    mode: str,
    *,
    shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    shm_budget: int | None = None,
) -> "SharedMemoryTransport | None":
    """The transport for ``mode`` — ``None`` means "everything by pipe".

    ``"auto"`` degrades to the pipe silently where shared memory is
    unavailable; ``"shm"`` raises instead, because the caller asked for
    a guarantee the platform cannot give.  ``shm_budget`` caps the
    bytes of segment capacity the transport may own at once; chunks
    that would overrun it ride the pipe instead (counted, never fatal).
    """
    if mode not in TRANSPORT_MODES:
        raise ValueError(
            f"transport must be one of {TRANSPORT_MODES}, got {mode!r}"
        )
    if mode == "pipe":
        return None
    if not shm_available():
        if mode == "shm":
            raise TransportUnavailableError(
                "transport='shm' requires multiprocessing.shared_memory, "
                "which this platform does not provide — use 'auto' or 'pipe'"
            )
        return None
    return SharedMemoryTransport(
        threshold=shm_threshold, force=(mode == "shm"), budget=shm_budget
    )


def _attach_untracked(name: str):
    """Attach an existing segment without resource-tracker ownership.

    A worker only *borrows* the segment; the driver owns and unlinks
    it.  Letting the worker's ``resource_tracker`` adopt the name would
    make a worker exit (clean, recycled or killed — notably under the
    spawn start method, where each worker runs its own tracker) unlink
    a segment other tasks still read.  Python >= 3.13 spells this
    ``track=False``; earlier versions need the explicit unregister.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: suppress the tracker registration for the
        # duration of the attach.  Unregistering *after* would be
        # wrong under the fork start method, where children share the
        # parent's tracker process — it would strip the owner's own
        # registration.  Workers are single-threaded, so the swap is
        # not racy.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _create_untracked(name: str, size: int):
    """Create a segment the owner's ``resource_tracker`` will not adopt.

    The transport owns segment lifetime explicitly — release refcounts,
    ``weakref.finalize``/``atexit`` on clean exits, and the pidfile
    janitor after a crash.  Python's tracker is a *second*, competing
    owner: it outlives a SIGKILLed driver and unlinks every registered
    segment the moment its pipe hits EOF, racing the janitor and
    spraying "leaked shared_memory objects" warnings on every crash.
    Unregistering from our *own* tracker right after create is safe
    (unlike on the worker borrow path, where under fork it would strip
    the owner's registration — here we are the owner, and stripping it
    is the point).
    """
    try:
        segment = _shared_memory.SharedMemory(
            create=True, size=size, name=name, track=False
        )
    except TypeError:
        # Python < 3.13: create tracked, then take the registration
        # back.  The tracker registers the raw POSIX name (with the
        # leading slash), kept in the private ``_name`` attribute.
        segment = _shared_memory.SharedMemory(
            create=True, size=size, name=name
        )
        from multiprocessing import resource_tracker

        try:
            resource_tracker.unregister(
                getattr(segment, "_name", "/" + name), "shared_memory"
            )
        except Exception:  # pragma: no cover - tracker already gone
            pass
    return segment


def _unlink_untracked(segment) -> None:
    """Remove the POSIX name of a segment :func:`_create_untracked` made.

    ``SharedMemory.unlink`` before Python 3.13 also unregisters the
    name from the resource tracker, which never held it: the tracker
    process then prints a ``KeyError`` traceback per segment.  There,
    unlink the name directly; with ``track=False`` (3.13+) ``unlink``
    skips the tracker itself, and off POSIX it involves no tracker.
    """
    if getattr(segment, "_track", True) and os.name == "posix":
        import _posixshmem

        _posixshmem.shm_unlink(segment._name)
    else:
        segment.unlink()


#: The *wire* codec for shared-memory chunks.  Deliberately fixed and
#: lossless — independent of whatever ``encoding``/``errors`` the
#: caller uses to read files: in-memory documents are already ``str``,
#: and re-encoding them with a lossy user codec (``ascii`` +
#: ``replace``...) would make the worker evaluate a *different*
#: document than the serial path.  ``surrogatepass`` keeps lone
#: surrogates (e.g. from ``surrogateescape``-decoded files) intact.
WIRE_ENCODING = "utf-8"
WIRE_ERRORS = "surrogatepass"


class ShmChunk(NamedTuple):
    """What a shared-memory task message carries instead of documents.

    ``index`` holds one ``(offset, length)`` byte range per document in
    the segment, in document order; empty documents are zero-length
    ranges, so round-trips are exact.  ``encoding``/``errors`` name the
    wire codec the bytes were packed with (a lossless constant, carried
    so decoding stays correct across engine versions).
    """

    segment: str
    index: tuple[tuple[int, int], ...]
    encoding: str
    errors: str

    def __len__(self) -> int:  # documents, not tuple arity
        return len(self.index)


#: Worker-side attachment cache: segment name -> SharedMemory, in LRU
#: order.  Segments are recycled by the owner, so the same few names
#: arrive over and over — keeping them mapped turns the per-chunk
#: ``shm_open``/``mmap`` pair into a dict hit.  Single-threaded worker
#: processes only; bounded so an unlinked name can pin at most one
#: stale mapping until it falls off the end.
_attachments: dict[str, object] = {}


def _attach_cached(name: str):
    segment = _attachments.pop(name, None)
    if segment is None:
        segment = _attach_untracked(name)
    _attachments[name] = segment  # (re-)insert as most recent
    while len(_attachments) > _ATTACH_CACHE_SEGMENTS:
        stale = _attachments.pop(next(iter(_attachments)))
        stale.close()
    return segment


class ShmDocumentView(Sequence[str]):
    """Worker-side lazy view of one packed chunk.

    Attaches to the segment on first access (through the process-wide
    attachment cache), decodes each document slice on demand — straight
    from the shared buffer, no intermediate pickle or pipe copy — and
    drops its handle on :meth:`release`.  Views are sequences, so the
    worker's evaluation loop iterates them exactly like the plain
    document lists the pipe delivers.
    """

    __slots__ = ("_ref", "_segment")

    def __init__(self, ref: ShmChunk):
        self._ref = ref
        self._segment = None

    def _buffer(self):
        if self._segment is None:
            try:
                self._segment = _attach_cached(self._ref.segment)
            except (FileNotFoundError, OSError) as err:
                # The segment is not visible in this worker's namespace
                # (attach race with a recycle, or a fresh worker beating
                # the owner's publication).  That indicts neither the
                # query nor the document — surface it as *transient* so
                # the driver re-dispatches with backoff instead of
                # failing the task's future.
                raise TransientTaskError(
                    f"cannot attach shared-memory segment "
                    f"{self._ref.segment!r}: {err}"
                ) from err
        return self._segment.buf

    def __len__(self) -> int:
        return len(self._ref.index)

    def __getitem__(self, i: int) -> str:
        offset, length = self._ref.index[i]
        return str(
            self._buffer()[offset : offset + length],
            self._ref.encoding,
            self._ref.errors,
        )

    def __iter__(self) -> Iterator[str]:
        for i in range(len(self._ref.index)):
            yield self[i]

    def release(self) -> None:
        """Drop this view's handle (the attachment cache keeps the
        mapping warm for the segment's next reuse; the *owner* unlinks,
        never the worker)."""
        self._segment = None


class SharedMemoryTransport:
    """Driver-side owner of the fleet's document segments.

    Thread-safe: packing happens on submitter threads, releases on the
    collector thread.  Every segment this transport creates is
    accounted for — in flight (refcounted per unresolved task) or
    pooled for reuse — until :meth:`close` unlinks it, the explicit
    lifetime contract that keeps ``/dev/shm`` clean across crashes,
    recycles and abandoned sessions.

    Released segments are recycled through a small free pool keyed by
    size class (next power of two): the ``shm_open``/``ftruncate``/
    ``mmap``/``shm_unlink`` round per segment — plus the fresh page
    faults on first touch — costs several times the memcpy it
    transports, so a serving fleet's steady state runs on a handful of
    segments created once.
    """

    mode = "shm"

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_SHM_THRESHOLD,
        force: bool = False,
        budget: int | None = None,
    ):
        if _shared_memory is None:  # pragma: no cover - guarded by factory
            raise TransportUnavailableError(
                "multiprocessing.shared_memory is unavailable"
            )
        if threshold < 0:
            raise ValueError(f"shm_threshold must be >= 0, got {threshold}")
        if budget is not None and budget < 1:
            raise ValueError(f"shm_budget must be >= 1, got {budget}")
        self.threshold = threshold
        self.force = force
        #: Max bytes of segment capacity (in-flight + pooled, counted
        #: by size class) this transport may own; ``None`` = unbounded.
        self.budget = budget
        self._lock = threading.Lock()
        #: segment name -> [SharedMemory, refcount] (in flight)
        self._segments: dict[str, list] = {}
        #: size class -> [SharedMemory, ...] (released, reusable)
        self._pool: dict[int, list] = {}
        self._pooled = 0
        #: segment name -> the size class it was created for.  The OS
        #: may round a segment's reported ``size`` up to its page size,
        #: so pooling must remember the class it will be looked up by,
        #: not re-derive it from ``segment.size``.
        self._classes: dict[str, int] = {}
        #: Bytes of owned segment capacity, by size class (the budget's
        #: unit of account — what the transport *reserved*, not what a
        #: chunk happened to fill).
        self._allocated = 0
        #: Chunks that fell back to the pipe on allocation failure or
        #: budget pressure (the graceful-degradation counter; chunks
        #: that merely lost the size negotiation are not degradations).
        self._degraded = 0
        #: Per-driver session identity: tag in every segment name, pid
        #: in a pidfile written *before* any segment exists — the
        #: attribution the orphan janitor sweeps by.  Startup is also
        #: sweep time: a fleet coming up reaps what a SIGKILLed
        #: predecessor stranded.
        try:
            self._orphans_swept = len(sweep_orphaned_segments())
        except Exception:  # pragma: no cover - sweeping is best-effort
            self._orphans_swept = 0
        self.session = _new_session_tag()
        try:
            self._pidfile = _write_pidfile(self.session)
        except OSError:  # pragma: no cover - unwritable tempdir
            self._pidfile = ""
        self._finalizer = weakref.finalize(
            self, _finalize_session, self._segments, self._pool, self._pidfile
        )

    # -- Introspection (tests assert leak-freedom through this) -------------
    def live_segments(self) -> tuple[str, ...]:
        """Names of in-flight segments (referenced by unresolved tasks;
        pooled segments are not live — they hold no task's data)."""
        with self._lock:
            return tuple(self._segments)

    def pooled_segments(self) -> tuple[str, ...]:
        """Names of released segments kept mapped for reuse."""
        with self._lock:
            return tuple(
                seg.name for bucket in self._pool.values() for seg in bucket
            )

    def stats(self) -> dict:
        """Resource accounting, for ``health()`` and the tests.

        ``bytes_in_flight``/``bytes_pooled`` are segment *capacity*
        (size classes — what counts against the budget), not payload
        bytes.  ``degraded_to_pipe`` counts chunks that fell back to
        the pipe on allocation failure or budget pressure since
        construction.
        """
        with self._lock:
            pooled = sum(
                self._classes.get(seg.name, 0)
                for bucket in self._pool.values()
                for seg in bucket
            )
            return {
                "bytes_in_flight": self._allocated - pooled,
                "bytes_pooled": pooled,
                "budget": self.budget,
                "degraded_to_pipe": self._degraded,
                "orphans_swept": self._orphans_swept,
            }

    # -- Packing -------------------------------------------------------------
    def pack(self, items: Sequence[str]) -> ShmChunk | None:
        """Pack one chunk into a segment; ``None`` = use the pipe.

        The ``None`` outcome is the negotiation: below ``threshold``
        bytes of encoded payload (unless ``force``), the pipe's fixed
        costs win and the caller ships the documents as before.  The
        size test is cheap on both ends — a chunk whose character count
        already reaches the threshold must encode at least that many
        bytes, and one whose UTF-8 worst case stays under it cannot.

        Documents are encoded with the fixed lossless wire codec
        (:data:`WIRE_ENCODING`/:data:`WIRE_ERRORS`), never the caller's
        file codec — the worker must see the exact string the serial
        path would evaluate.

        Allocation failure is the *other* ``None`` outcome: a full
        ``/dev/shm`` (``ENOSPC``), an OS that refuses the mapping
        (``MemoryError``), or a chunk that would overrun this
        transport's ``budget`` degrades the chunk to the pipe — counted
        in :meth:`stats`, never raised to the submitter, ``force``
        included (the caller asked for a fast path, not an outage).
        """
        if not self.force:
            chars = sum(len(s) for s in items)
            if chars * 4 < self.threshold:
                return None  # cannot reach the threshold: pipe
            if chars < self.threshold:
                # Indeterminate band: only the real encoding decides.
                if sum(
                    len(s.encode(WIRE_ENCODING, WIRE_ERRORS)) for s in items
                ) < self.threshold:
                    return None
        blobs = [s.encode(WIRE_ENCODING, WIRE_ERRORS) for s in items]
        total = sum(len(b) for b in blobs)
        try:
            segment = self._obtain_segment(max(total, 1))
        except (OSError, MemoryError):
            # SharedMemory(create=True) failed (ENOSPC and kin), or the
            # budget cannot fit this chunk even after shrinking the
            # pool: degrade to the pipe.  The documents still reach the
            # worker — through the task message, exactly as if the
            # chunk had lost the size negotiation — so degradation is
            # a throughput event, never a correctness one.
            with self._lock:
                self._degraded += 1
            return None
        index = []
        offset = 0
        for blob in blobs:
            end = offset + len(blob)
            segment.buf[offset:end] = blob
            index.append((offset, len(blob)))
            offset = end
        with self._lock:
            self._segments[segment.name] = [segment, 1]
        return ShmChunk(
            segment.name, tuple(index), WIRE_ENCODING, WIRE_ERRORS
        )

    @staticmethod
    def _size_class(size: int) -> int:
        # Power-of-two classes (>= one page) so chunks of similar size
        # recycle each other's segments instead of near-missing.
        return max(4096, 1 << (size - 1).bit_length())

    def _obtain_segment(self, size: int):
        wanted = self._size_class(size)
        evicted: list = []
        overrun = False
        with self._lock:
            bucket = self._pool.get(wanted)
            if bucket:
                self._pooled -= 1
                return bucket.pop()
            if self.budget is not None:
                # Budget pressure: pooled-but-idle segments yield their
                # reserved bytes to live traffic before any chunk is
                # degraded — the pool is a throughput optimization, the
                # budget is a promise.
                while self._allocated + wanted > self.budget and self._pooled:
                    size_class, pool_bucket = next(
                        (c, b) for c, b in self._pool.items() if b
                    )
                    seg = pool_bucket.pop()
                    if not pool_bucket:
                        del self._pool[size_class]
                    self._pooled -= 1
                    self._classes.pop(seg.name, None)
                    self._allocated -= size_class
                    evicted.append(seg)
                overrun = self._allocated + wanted > self.budget
            if not overrun:
                # Reserve before creating, so concurrent packers cannot
                # collectively overshoot the budget between the check
                # and the create.
                self._allocated += wanted
        for seg in evicted:
            self._destroy(seg)
        if overrun:
            raise OSError(
                errno.ENOSPC,
                f"shm budget of {self.budget} bytes cannot fit a "
                f"{wanted}-byte segment",
            )
        try:
            segment = self._create_segment(wanted)
        except BaseException:
            with self._lock:
                self._allocated -= wanted
            raise
        with self._lock:
            self._classes[segment.name] = wanted
        return segment

    def _create_segment(self, size: int):
        # Explicit names (prefix + session tag + counter) so operators,
        # the cleanup tests *and the orphan janitor* can attribute
        # /dev/shm entries to a driver; retry on the (unlikely)
        # collision with a leftover from a previous session.
        while True:
            name = f"{_SEGMENT_PREFIX}-{self.session}-{next(_segment_ids)}"
            try:
                return _create_untracked(name, size)
            except FileExistsError:  # pragma: no cover - tag collision
                continue

    # -- The release handshake ----------------------------------------------
    def acquire(self, ref: ShmChunk) -> None:
        """One more consumer for a packed chunk (rarely needed: a task
        holds exactly one reference for its whole lifetime, crash
        re-dispatch included)."""
        with self._lock:
            entry = self._segments.get(ref.segment)
            if entry is not None:
                entry[1] += 1

    def release(self, ref: ShmChunk) -> None:
        """Drop one reference; recycle (or unlink) the segment at zero.

        At zero the segment goes back to the free pool for the next
        chunk of its size class; a full pool unlinks instead.
        Idempotent past zero (a shutdown sweep may race a late
        collector release) — releasing an unknown name is a no-op.
        """
        with self._lock:
            entry = self._segments.get(ref.segment)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._segments[ref.segment]
            segment = entry[0]
            if self._pooled < _POOL_SEGMENTS:
                size_class = self._classes[segment.name]
                self._pool.setdefault(size_class, []).append(segment)
                self._pooled += 1
                return
            self._allocated -= self._classes.pop(segment.name, 0)
        self._destroy(segment)

    def close(self) -> None:
        """Unlink everything still owned — in flight and pooled alike
        (fleet shutdown sweep; ``/dev/shm`` ends clean).  The GC/exit
        finalizer stays armed, so a segment packed after ``close()``
        is still unlinked."""
        with self._lock:
            self._pooled = 0
            self._classes.clear()
            self._allocated = 0
            _finalize_session(self._segments, self._pool, self._pidfile)

    @staticmethod
    def _destroy(segment) -> None:
        try:
            segment.close()
        finally:
            try:
                _unlink_untracked(segment)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- Worker side --------------------------------------------------------------


def open_chunk(items: "ShmChunk | Sequence[str]") -> Sequence[str]:
    """Materialize a task's document payload, whatever transport carried it.

    A :class:`ShmChunk` becomes a lazy :class:`ShmDocumentView`; plain
    lists (the pipe transport) pass through untouched.  Callers that
    received a view must :func:`release_chunk` it when the task is done.
    """
    if isinstance(items, ShmChunk):
        return ShmDocumentView(items)
    return items


def release_chunk(items: Sequence[str]) -> None:
    """Detach a view produced by :func:`open_chunk` (no-op otherwise)."""
    if isinstance(items, ShmDocumentView):
        items.release()


# -- File-backed documents: the mmap path -------------------------------------


def read_document(
    path: str,
    *,
    encoding: str = "utf-8",
    errors: str = "strict",
    mmap_threshold: int = MMAP_THRESHOLD,
) -> str:
    """Read one document, decoding huge files straight from ``mmap``.

    Files of at least ``mmap_threshold`` bytes are mapped and decoded
    from the mapping in one step (``str`` accepts any buffer), skipping
    the intermediate ``bytes`` copy a plain ``read()`` materializes —
    the worker-side path ``evaluate_files`` extends to huge single
    files.  Smaller files take the ordinary read.
    """
    if mmap_threshold is not None and mmap_threshold >= 0:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0  # let open() raise the canonical error below
        if size >= mmap_threshold and size > 0:
            with open(path, "rb") as handle:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as window:
                    return str(window, encoding, errors)
    with open(path, encoding=encoding, errors=errors) as handle:
        return handle.read()
