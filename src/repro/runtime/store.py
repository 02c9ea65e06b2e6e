"""Crash-safe persistence for compiled query artifacts.

The paper's whole economics rest on compile-once/evaluate-many
(Theorem 3.3: the expensive preprocessing is *string-independent*), but
until this module the "once" meant once per driver process — a restart
recompiled every registered query from scratch.  An
:class:`ArtifactStore` makes the compiled artifact a durable,
fingerprint-keyed blob instead of ephemeral process state, so
``SpannerService(artifact_store=...)`` can warm-start ``register()``
and ``SpannerService.restore()`` can rebuild a fleet after ``kill -9``
without recompiling anything the store still holds.

Two implementations share one contract and one on-disk/encoded format:

:class:`MemoryStore`
    a process-local dict — the test double and the "cache but don't
    persist" configuration.  It stores *encoded* blobs (header and
    all), so corruption detection behaves identically to disk.

:class:`FileStore`
    a directory of ``<key>.art`` files.  Writes are atomic and durable
    (same-directory tmp file + ``fsync`` + ``os.replace`` + directory
    ``fsync``), so a crash at any instant leaves either the old entry,
    the new entry, or a stray tmp file — never a half-written entry
    under the live name.  Reads verify a versioned, checksummed header;
    anything torn or bit-flipped is *quarantined* (renamed to
    ``<key>.corrupt``) and surfaced as a picklable
    :class:`~repro.errors.ArtifactCorruptError`, which callers treat as
    a miss — the artifact is a pure function of the query, so
    recompiling is always a correct recovery.  An optional byte budget
    evicts least-recently-used entries (read hits refresh recency via
    ``mtime``).

Blob format (``encode_artifact`` / ``decode_artifact``)::

    magic   5 bytes   b"SJART"
    version u16 BE    STORE_FORMAT_VERSION — bump on layout change;
                      readers reject other versions as corrupt
    length  u64 BE    payload byte count
    digest  32 bytes  sha256(payload)
    payload length bytes (a pickle the runtime already exchanges with
                      its workers: AutomatonTables, vset extractors,
                      CompiledEqualityQuery)
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
from pathlib import Path

from ..errors import ArtifactCorruptError

__all__ = [
    "ArtifactStore",
    "MemoryStore",
    "FileStore",
    "STORE_FORMAT_VERSION",
    "encode_artifact",
    "decode_artifact",
]

#: Bump when the blob layout changes; readers quarantine other versions.
STORE_FORMAT_VERSION = 1

_MAGIC = b"SJART"
_HEADER = struct.Struct(">5sHQ32s")  # magic, version, payload length, sha256

#: Keys become file names, so they are restricted to a filesystem- and
#: shell-safe alphabet.  The service generates ``s<hex>`` (source
#: fingerprints) and ``a<hex>`` (artifact fingerprints).
_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_ENTRY_SUFFIX = ".art"
_QUARANTINE_SUFFIX = ".corrupt"
_TMP_PREFIX = ".tmp-"


def encode_artifact(payload: bytes) -> bytes:
    """Frame ``payload`` with the versioned, checksummed store header."""
    if not isinstance(payload, bytes):
        raise TypeError(f"artifact payload must be bytes, got {type(payload).__name__}")
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(_MAGIC, STORE_FORMAT_VERSION, len(payload), digest) + payload


def decode_artifact(blob: bytes, *, key: str = "?") -> bytes:
    """Verify a framed blob and return its payload.

    Raises :class:`~repro.errors.ArtifactCorruptError` naming the first
    failed check; the caller decides whether to quarantine.
    """
    if len(blob) < _HEADER.size:
        raise ArtifactCorruptError(
            key, "truncated", f"{len(blob)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ArtifactCorruptError(key, "bad-magic", repr(magic))
    if version != STORE_FORMAT_VERSION:
        raise ArtifactCorruptError(
            key,
            "bad-version",
            f"entry is format v{version}, this build reads v{STORE_FORMAT_VERSION}",
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise ArtifactCorruptError(
            key, "truncated", f"header promises {length} payload bytes, found {len(payload)}"
        )
    actual = hashlib.sha256(payload).digest()
    if actual != digest:
        raise ArtifactCorruptError(
            key, "bad-checksum",
            f"sha256 {actual.hex()[:16]}… != recorded {digest.hex()[:16]}…",
        )
    return payload


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise ValueError(
            f"invalid store key {key!r}: keys must match {_KEY_RE.pattern}"
        )
    return key


class ArtifactStore:
    """Contract + shared counters for compiled-artifact stores.

    Subclasses implement :meth:`_read`, :meth:`_write`,
    :meth:`_quarantine`, :meth:`_evict_for` and :meth:`entries`; the
    base class owns the counters and the integrity checking so every
    implementation counts and verifies identically.
    All public methods are thread-safe (``register()`` may race the
    collector's manifest writes).
    """

    def __init__(self, *, budget: int | None = None):
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt_quarantined = 0
        self._evicted = 0

    # -- contract ------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """Return the payload for ``key``, or ``None`` on a miss.

        A corrupt entry is quarantined, counted, and raised as
        :class:`~repro.errors.ArtifactCorruptError`; the *next* get of
        the same key is a clean miss.
        """
        _check_key(key)
        with self._lock:
            blob = self._read(key)
            if blob is None:
                self._misses += 1
                return None
            try:
                payload = decode_artifact(blob, key=key)
            except ArtifactCorruptError:
                self._quarantine(key)
                self._corrupt_quarantined += 1
                raise
            self._hits += 1
            self._touch(key)
            return payload

    def put(self, key: str, payload: bytes) -> None:
        """Store ``payload`` under ``key`` (atomic, durable, budgeted).

        A payload that alone exceeds the budget is silently not stored
        — the store is a cache, never a correctness dependency.
        """
        _check_key(key)
        blob = encode_artifact(payload)
        with self._lock:
            if self.budget is not None:
                if len(blob) > self.budget:
                    return
                self._evict_for(key, len(blob))
            self._write(key, blob)
            self._puts += 1

    def stats(self) -> dict:
        """Counters + occupancy, JSON-serializable (rides ``health()``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "corrupt_quarantined": self._corrupt_quarantined,
                "evicted": self._evicted,
                "entries": len(self.keys()),
                "bytes_used": sum(size for _, size, _ in self.entries()),
                "budget": self.budget,
            }

    def verify(self) -> dict[str, str]:
        """Integrity-check every entry without quarantining.

        Returns ``{key: "ok" | "corrupt"}`` — the read-only audit
        behind ``spanner-join cache verify``.
        """
        report = {}
        with self._lock:
            for key, _, _ in self.entries():
                blob = self._read(key)
                if blob is None:
                    continue
                try:
                    decode_artifact(blob, key=key)
                except ArtifactCorruptError:
                    report[key] = "corrupt"
                else:
                    report[key] = "ok"
        return report

    def keys(self) -> list[str]:
        return [key for key, _, _ in self.entries()]

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; the base stores hold none."""

    # -- subclass surface ----------------------------------------------

    def entries(self) -> list[tuple[str, int, float]]:
        """``(key, encoded bytes, recency)`` triples, oldest first."""
        raise NotImplementedError

    def _read(self, key: str) -> bytes | None:
        raise NotImplementedError

    def _write(self, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def _quarantine(self, key: str) -> None:
        raise NotImplementedError

    def _touch(self, key: str) -> None:
        raise NotImplementedError

    def _evict_for(self, key: str, incoming: int) -> None:
        """Evict LRU entries until ``incoming`` bytes fit the budget."""
        assert self.budget is not None
        used = sum(size for k, size, _ in self.entries() if k != key)
        if used + incoming <= self.budget:
            return
        for victim, size, _ in self.entries():  # oldest first
            if victim == key:
                continue
            self._remove(victim)
            self._evicted += 1
            used -= size
            if used + incoming <= self.budget:
                return

    def _remove(self, key: str) -> None:
        raise NotImplementedError


class MemoryStore(ArtifactStore):
    """In-process store: encoded blobs in an insertion/recency dict."""

    def __init__(self, *, budget: int | None = None):
        super().__init__(budget=budget)
        self._blobs: dict[str, bytes] = {}
        self._clock = 0
        self._stamps: dict[str, int] = {}

    def entries(self) -> list[tuple[str, int, float]]:
        return sorted(
            ((k, len(b), float(self._stamps.get(k, 0))) for k, b in self._blobs.items()),
            key=lambda item: item[2],
        )

    def _read(self, key: str) -> bytes | None:
        return self._blobs.get(key)

    def _write(self, key: str, blob: bytes) -> None:
        self._blobs[key] = blob
        self._touch(key)

    def _quarantine(self, key: str) -> None:
        self._blobs.pop(key, None)
        self._stamps.pop(key, None)

    def _touch(self, key: str) -> None:
        self._clock += 1
        self._stamps[key] = self._clock

    def _remove(self, key: str) -> None:
        self._blobs.pop(key, None)
        self._stamps.pop(key, None)


class FileStore(ArtifactStore):
    """Durable store: one atomically-written ``<key>.art`` per entry.

    ``root`` is created on first use.  Entry recency for LRU eviction
    is the file ``mtime``, refreshed on every read hit — so eviction
    order survives restarts, which a dict-based LRU would not.
    """

    def __init__(self, root: str | os.PathLike, *, budget: int | None = None):
        super().__init__(budget=budget)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_ENTRY_SUFFIX}"

    def entries(self) -> list[tuple[str, int, float]]:
        found = []
        for path in self.root.glob(f"*{_ENTRY_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced unlink
                continue
            found.append((path.name[: -len(_ENTRY_SUFFIX)], stat.st_size, stat.st_mtime))
        found.sort(key=lambda item: item[2])
        return found

    def quarantined(self) -> list[str]:
        """Names of quarantined files (for ``cache ls`` / ``cache gc``)."""
        return sorted(p.name for p in self.root.glob(f"*{_QUARANTINE_SUFFIX}"))

    def gc_quarantined(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        removed = 0
        for path in self.root.glob(f"*{_QUARANTINE_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - raced unlink
                continue
        return removed

    def _read(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def _write(self, key: str, blob: bytes) -> None:
        atomic_write_bytes(self._path(key), blob)

    def _quarantine(self, key: str) -> None:
        path = self._path(key)
        try:
            os.replace(path, path.with_suffix(_QUARANTINE_SUFFIX))
        except OSError:  # pragma: no cover - raced unlink
            pass

    def _touch(self, key: str) -> None:
        try:
            os.utime(self._path(key))
        except OSError:  # pragma: no cover - raced unlink
            pass

    def _remove(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:  # pragma: no cover - raced unlink
            pass


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    Same-directory tmp file + ``fsync`` + ``os.replace``, then a
    best-effort directory ``fsync`` so the rename itself survives a
    crash.  Readers of ``path`` see the old bytes or the new bytes,
    never a mix — this is the primitive under both the ``FileStore``
    entries and the service's restart manifest.
    """
    path = Path(path)
    tmp = path.parent / f"{_TMP_PREFIX}{path.name}-{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)
