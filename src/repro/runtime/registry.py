"""Query registration, persistence and circuit breakers for the fleet.

:class:`~repro.runtime.service.SpannerService` keeps the public API and
the scheduling.  The per-query state that outlives any one task lives
here, in two owners guarded by the service's one lock:

* :class:`QueryRegistry` — registration and persistence: the payload
  registry (query id -> pickled artifact), admission control, artifact
  store lookups, source specs, the restart manifest journal and its
  validation for ``restore()``, and one options record per query that
  is both what the fleet enforces and what the manifest journals;
* :class:`CircuitBreakers` — the per-query circuit breakers: admit
  (and the half-open probe), charge, clear, re-arm from the manifest,
  and the one open-quarantine snapshot that ``health()``,
  ``quarantined_queries`` and the manifest all read.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from ..errors import (
    ArtifactCorruptError,
    QueryQuarantinedError,
    QueryRejectedError,
    SpannerError,
)
from .compiled import CompiledSpanner, estimate_compile_states
from .config import UNSET, ServiceConfig, check_limits
from .equality import CompiledEqualityQuery
from .store import ArtifactStore, FileStore, MemoryStore, atomic_write_bytes
from .tables import AutomatonTables

__all__ = [
    "QueryRegistry",
    "CircuitBreakers",
    "QueryHandle",
    "MANIFEST_FORMAT_VERSION",
    "artifact_for",
    "read_manifest",
]

#: Bump when the restart-manifest layout changes; ``restore()`` rejects
#: unknown versions rather than guessing at field meanings.
#:
#: v1 -> v2: the config records the resolved ``backend`` name, so
#: ``restore()`` revives the fleet onto the same substrate.  v1
#: manifests (which predate the backend seam and could only have been
#: written by a process fleet) are still accepted: restore reads them
#: as ``backend="process"``.
MANIFEST_FORMAT_VERSION = 2

#: The per-query overrides ``register()`` accepts and the manifest
#: journals, each with the :class:`ServiceConfig` field it inherits
#: when omitted.
_OPTION_DEFAULTS = {
    "timeout": "task_timeout",
    "max_tuples": "max_tuples",
    "max_result_bytes": "max_result_bytes",
}

#: Inputs that are already compiled: shipped as they are, and with no
#: source to record.
_PRECOMPILED = (CompiledSpanner, CompiledEqualityQuery, AutomatonTables)


def artifact_for(query: object) -> object:
    """The ship-to-workers artifact for anything ``register()`` accepts.

    The pickle contract matches :class:`ParallelSpanner`'s:
    equality-free spanners ship their
    :class:`~repro.runtime.tables.AutomatonTables` (a worker rebuilds a
    ``CompiledSpanner`` around them without rerunning preprocessing);
    self-contained engines ship themselves.
    """
    if isinstance(query, CompiledSpanner):
        return query.tables
    if isinstance(query, _PRECOMPILED):
        return query
    return CompiledSpanner(query).tables  # automaton / formula / syntax


def _valid_id(query_id: object) -> bool:
    """What ``register()`` accepts and ``restore()`` requires as an id."""
    return isinstance(query_id, str) and bool(query_id)


def _source_of(query: object) -> dict | None:
    """The manifest's restorable description of a compilable input.

    Concrete syntax survives as itself; formula/automaton inputs as
    their (deterministic, pure-data) pickle.  ``None`` and precompiled
    inputs give ``None`` — there is nothing cheaper than the artifact
    to record, so the store entry is their only revival path.
    """
    if isinstance(query, str):
        return {"kind": "syntax", "data": query}
    if query is None or isinstance(query, _PRECOMPILED):
        return None
    data = pickle.dumps(query, protocol=pickle.HIGHEST_PROTOCOL)
    return {"kind": "pickle", "data": base64.b64encode(data).decode("ascii")}


def _source_key(source: dict) -> str:
    """The store key of a source: ``s`` + a sha256 prefix.

    Keyed on the *source*, not the artifact, so a warm ``register`` can
    look up the compiled bytes before any compilation happens — the
    whole point of the warm start.  Raises ``KeyError`` /
    ``TypeError`` / ``ValueError`` for a malformed source.
    """
    kind, data = source["kind"], source["data"]
    if kind == "syntax":
        raw = data.encode("utf-8")
    elif kind == "pickle":
        raw = base64.b64decode(data, validate=True)
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    digest = hashlib.sha256(kind.encode("ascii") + b"\x00" + raw)
    return "s" + digest.hexdigest()[:24]


def _query_from_source(source: dict) -> object:
    if source["kind"] == "syntax":
        return source["data"]
    return pickle.loads(base64.b64decode(source["data"]))


def read_manifest(
    path: Path, artifact_store: "ArtifactStore | None"
) -> tuple:
    """The validated restart manifest at ``path``.

    Returns ``(config, store, entries, quarantined)``: the recorded
    :class:`ServiceConfig`, ``artifact_store`` or else the store the
    manifest describes, the query entries (options range-checked) and
    ``{query id: failures or None}`` for the open quarantines.  Raises
    :class:`~repro.errors.SpannerError` when the manifest is
    unreadable, from an unknown format version, records a config
    :class:`ServiceConfig` rejects, or is otherwise malformed.
    """
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as err:
        raise SpannerError(
            f"cannot restore fleet: unreadable manifest {path}: {err}"
        ) from err
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in (1, MANIFEST_FORMAT_VERSION):
        raise SpannerError(
            f"manifest {path} is format {fmt!r}; this "
            f"build speaks v{MANIFEST_FORMAT_VERSION}"
        )
    try:
        recorded = dict(doc.get("config") or {})
        if fmt == 1:
            # v1 predates the backend seam: only the process fleet
            # existed, so that is what the manifest implicitly records.
            recorded.setdefault("backend", "process")
        config = ServiceConfig(**recorded)
    except (TypeError, ValueError) as err:
        raise SpannerError(
            f"manifest {path} records an invalid config: {err}"
        ) from err
    try:
        entries = doc.get("queries") or []
        for entry in entries:
            if not _valid_id(entry.get("query_id")):
                raise SpannerError(
                    f"manifest query entry without an id: {entry!r}"
                )
            # Only the known options, range-checked like register()'s.
            given = entry.get("options") or {}
            entry["options"] = {
                k: given[k] for k in _OPTION_DEFAULTS if k in given
            }
            check_limits(**entry["options"])
            if entry.get("source") is not None:
                _source_key(entry["source"])
        quarantined = {
            qid: None if rec.get("failures") is None else int(rec["failures"])
            for qid, rec in (doc.get("quarantined") or {}).items()
        }
        if artifact_store is None:
            artifact_store = _store_from_descriptor(doc.get("store"))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise SpannerError(f"manifest {path} is malformed: {err!r}") from err
    return config, artifact_store, entries, quarantined


def _store_from_descriptor(desc: dict | None) -> "ArtifactStore | None":
    if not desc:
        return None
    kind = desc.get("kind")
    if kind == "file":
        return FileStore(desc["root"], budget=desc.get("budget"))
    if kind == "memory":
        # A MemoryStore died with its driver; restoring builds an empty
        # one and every query revives from source.
        return MemoryStore(budget=desc.get("budget"))
    return None  # custom stores cannot be rebuilt from a manifest


class QueryHandle(str):
    """A registered query's id with its registration facts attached.

    Returned by :meth:`SpannerService.register`.  It *is* the query id
    — a ``str`` subclass, so every pre-existing call form
    (``submit(qid, ...)``, dict keys, manifest entries) keeps working
    unchanged — but it additionally carries the artifact fingerprint
    and the effective per-task limits the query was registered with:

    * ``fingerprint`` — sha256 hex digest of the pickled artifact (the
      same bytes the manifest journals as ``payload_sha256``);
    * ``timeout`` / ``max_tuples`` / ``max_result_bytes`` — the
      *effective* values after query-over-service inheritance, i.e.
      what a ``submit`` without call-level overrides will enforce.

    Handles compare and hash as plain strings, and the driver
    normalizes them back to ``str`` at the submission boundary so the
    worker wire protocol never carries the subclass.
    """

    # str is a variable-length builtin, so no __slots__: the attributes
    # live in a per-instance dict like any ordinary class.
    def __new__(
        cls,
        query_id: str,
        *,
        fingerprint: str | None = None,
        timeout: float | None = None,
        max_tuples: int | None = None,
        max_result_bytes: int | None = None,
    ) -> "QueryHandle":
        self = super().__new__(cls, query_id)
        self.fingerprint = fingerprint
        self.timeout = timeout
        self.max_tuples = max_tuples
        self.max_result_bytes = max_result_bytes
        return self

    def __repr__(self) -> str:
        return (
            f"QueryHandle({str.__repr__(self)}, "
            f"fingerprint={self.fingerprint!r})"
        )


@dataclass(slots=True)
class _Breaker:
    """One query's circuit-breaker state.

    closed (``opened_at is None``): counting consecutive fleet-level
    failures.  open: submissions fail fast until the cool-down elapses,
    then exactly one probe is admitted (``probe_at`` stamps it); the
    probe's success closes the breaker, its failure re-arms the
    cool-down.  ``probe_at`` is a timestamp rather than a flag so a
    probe that never resolves (shed, cancelled, lost in a close) merely
    delays the next probe by one cool-down instead of wedging the
    breaker half-open forever.
    """

    failures: int = 0
    opened_at: float | None = None
    probe_at: float | None = None


class CircuitBreakers:
    """The per-query circuit breakers (callers hold the service lock).

    Only *fleet-level* failures are charged — a deadline kill, lost
    workers, exhausted transient retries.  Ordinary worker exceptions
    (a bad path in ``submit_files``, a decode error, a result cap)
    indict the input, not the fleet, and must never quarantine a query
    other inputs are using fine.
    """

    def __init__(self, config: ServiceConfig):
        self._config = config
        self._records: dict[str, _Breaker] = {}
        #: An open quarantine opened, closed or was re-charged since the
        #: manifest last journaled them; the collector flushes it.
        self.changed = False

    def open(self) -> dict[str, _Breaker]:
        """The open-quarantine snapshot: query id -> its open breaker."""
        return {
            qid: breaker
            for qid, breaker in self._records.items()
            if breaker.opened_at is not None
        }

    def blocked(self, query_id: str) -> QueryQuarantinedError | None:
        """The error an admission of ``query_id`` would raise, or ``None``
        when its breaker is closed or cooled down enough for a probe."""
        breaker = self._records.get(query_id)
        if breaker is None or breaker.opened_at is None:
            return None
        # A probe (always stamped after the opening) restarts the wait.
        since = breaker.probe_at or breaker.opened_at
        wait = since + self._config.quarantine_cooldown - time.monotonic()
        if wait > 0:
            return QueryQuarantinedError(query_id, breaker.failures, wait)
        return None  # would admit (as the probe)

    def admit(self, query_id: str) -> None:
        """Fail fast while ``query_id``'s breaker is open.

        Once the cool-down has elapsed, admits exactly one *probe*
        submission (half-open); further submissions keep failing until
        the probe resolves — or until a full extra cool-down passes, in
        case the probe itself was lost (shed, cancelled, closed away).
        """
        blocked = self.blocked(query_id)
        if blocked is not None:
            raise blocked
        if query_id in self.open():  # this submission is the probe
            self._records[query_id].probe_at = time.monotonic()

    def charge(self, *query_ids: str) -> None:
        """One fleet-level failure for each of ``query_ids``."""
        for qid in query_ids:
            breaker = self._records.setdefault(qid, _Breaker())
            breaker.failures += 1
            if (
                breaker.opened_at is not None
                or breaker.failures >= self._config.quarantine_after
            ):
                # Opens — or, open already (this was the probe, or a
                # straggler), re-arms: the cool-down runs from now.
                breaker.opened_at, breaker.probe_at = time.monotonic(), None
                self.changed = True

    def clear(self, query_id: str) -> bool:
        """Forget ``query_id``'s failure history; ``True`` when its
        breaker was open.

        Consecutive-failure semantics: any clean completion (probe or
        otherwise) clears it, as does an operator's ``reinstate``.
        """
        breaker = self._records.pop(query_id, None)
        was_open = breaker is not None and breaker.opened_at is not None
        self.changed |= was_open
        return was_open

    def rearm(self, recorded: "dict[str, int | None]") -> None:
        """Re-open the quarantines a manifest recorded, cool-down from
        now (``None`` failures: the ``quarantine_after`` threshold)."""
        now = time.monotonic()
        for qid, failures in recorded.items():
            if failures is None:
                failures = self._config.quarantine_after
            self._records[qid] = _Breaker(failures, now)


class QueryRegistry:
    """Registration and persistence for one fleet.

    ``payloads`` maps each registered query id to its pickled artifact,
    in registration order; ``entries`` maps it to its manifest record,
    whose ``options`` dict (the explicitly given ``timeout`` /
    ``max_tuples`` / ``max_result_bytes``) is the one per-query options
    record — what :meth:`limits` enforces and what the manifest
    journals.  Methods that mutate take the service ``lock``;
    compilation runs outside it.  ``check_open`` raises once the
    service is closing; ``on_reject`` counts an admission refusal.
    """

    def __init__(
        self,
        config: ServiceConfig,
        lock,
        breakers: CircuitBreakers,
        *,
        store: "ArtifactStore | None",
        manifest_path: "Path | None",
        check_open: Callable[[], None],
        on_reject: Callable[[], None],
    ):
        self.config = config
        self._lock = lock
        self.breakers = breakers
        if store is None and manifest_path is not None:
            # A manifest without a store would journal queries it can
            # only revive from source; defaulting the store next to the
            # manifest makes restore() warm for every registration.
            store = FileStore(manifest_path.parent / "artifacts")
        self.store = store
        self.manifest_path = manifest_path
        self._check_open = check_open
        self._on_reject = on_reject
        self.payloads: dict[str, bytes] = {}
        self.entries: dict[str, dict] = {}

    def limits(self, query_id: str, call: tuple = (UNSET,) * 3) -> tuple:
        """``query_id``'s effective ``(timeout, max_tuples,
        max_result_bytes)``: per ``call``, then per query, then the
        service default, field by field.  An explicit ``None`` at a
        more specific level disables the inherited limit."""
        options = self.entries[query_id]["options"]
        return tuple(
            value
            if value is not UNSET
            else options.get(name, getattr(self.config, default))
            for (name, default), value in zip(_OPTION_DEFAULTS.items(), call)
        )

    # -- Registration -------------------------------------------------------
    def register(
        self, query: object, query_id: str | None, source: object, **limits
    ) -> QueryHandle:
        """:meth:`SpannerService.register`: admission, store lookup or
        compile, then the locked commit."""
        if query_id is not None and not _valid_id(query_id):
            raise ValueError(
                f"query_id must be a non-empty string, got {query_id!r}"
            )
        check_limits(**limits)
        # The explicit per-query overrides; omitted ones inherit.
        options = {k: v for k, v in limits.items() if v is not UNSET}
        self._admit(query, "estimated")
        # A precompiled query with a declared origin is fingerprinted
        # by the origin, so warm starts work across driver processes.
        spec = _source_of(query) or _source_of(source)
        store = self.store
        store_key = _source_key(spec) if store is not None and spec else None
        payload = self._stored(store_key)
        if payload is None:
            payload = self._compile(query)
            if store is not None:
                # Precompiled input with no source to fingerprint: key
                # by the artifact bytes themselves.
                store_key = store_key or (
                    "a" + hashlib.sha256(payload).hexdigest()[:24]
                )
                store.put(store_key, payload)
        qid = (
            str(query_id)
            if query_id is not None
            else "q" + hashlib.sha256(payload).hexdigest()[:16]
        )
        return self._commit(qid, payload, options, store_key, spec)

    def _admit(self, query: object, context: str) -> None:
        """Admission control: refuse (and count) a query whose estimated
        automaton size exceeds ``max_compile_states``."""
        limit = self.config.max_compile_states
        if limit is None:
            return
        estimate = estimate_compile_states(query)
        if estimate is not None and estimate > limit:
            self._on_reject()
            raise QueryRejectedError(
                f"{context} automaton size {estimate} exceeds "
                f"max_compile_states={limit}",
                estimated_states=estimate,
                max_compile_states=limit,
            )

    def _stored(
        self, key: str | None, sha256: str | None = None
    ) -> bytes | None:
        """The stored payload under ``key``, or ``None`` for a miss.

        A corrupt entry (quarantined by the store) is a miss, and so is
        one whose digest is not the ``sha256`` the manifest promised —
        e.g. a source-key collision after an eviction/re-put cycle: not
        safe to revive.
        """
        if self.store is None or not key:
            return None
        try:
            payload = self.store.get(key)
        except ArtifactCorruptError:
            return None
        if payload is not None and sha256:
            if hashlib.sha256(payload).hexdigest() != sha256:
                return None
        return payload

    def _compile(self, query: object) -> bytes:
        """The pickled ship-to-workers artifact, under the compile deadline.

        Without a ``compile_timeout`` (or for inputs that are already
        compiled — nothing left to bound), compilation runs inline.
        With one, a throwaway process compiles and pickles the artifact
        while we poll its pipe under the deadline; expiry kills the
        process and raises :class:`~repro.errors.QueryRejectedError` —
        the driver thread is never stuck inside an unbounded
        ``compile_regex``.
        """
        timeout = self.config.compile_timeout
        if timeout is None or isinstance(query, _PRECOMPILED):
            return pickle.dumps(
                artifact_for(query), protocol=pickle.HIGHEST_PROTOCOL
            )
        # The bounded compile is process-lifecycle mechanism, so it
        # lives with the process backend — and is used *whatever* the
        # serving backend, since a throwaway process is the only
        # compile-bounding primitive Python offers.
        from .backends.process import compile_in_subprocess

        return compile_in_subprocess(
            query, timeout, self.config.mp_context, on_timeout=self._on_reject
        )

    def _commit(
        self,
        qid: str,
        payload: bytes,
        options: dict,
        store_key: str | None,
        source: dict | None,
    ) -> QueryHandle:
        """The locked tail of registration (shared with restore).

        Installs the payload, merges ``options`` over the query's
        existing record (a re-registration overrides only what it names)
        and journals the registration atomically; returns the handle.
        """
        fingerprint = hashlib.sha256(payload).hexdigest()
        with self._lock:
            self._check_open()
            if self.payloads.get(qid, payload) != payload:
                raise ValueError(
                    f"query id {qid!r} already registered with a "
                    "different artifact"
                )
            self.payloads[qid] = payload
            if qid in self.entries:
                options = {**self.entries[qid]["options"], **options}
            self.entries[qid] = {
                "query_id": qid,
                "store_key": store_key,
                "payload_sha256": fingerprint,
                "source": source,
                "options": options,
            }
            self.write()
            return QueryHandle(
                qid,
                fingerprint=fingerprint,
                **dict(zip(_OPTION_DEFAULTS, self.limits(qid))),
            )

    # -- The manifest --------------------------------------------------------
    def _store_descriptor(self) -> dict | None:
        """How to rebuild (or at least name) the configured store."""
        store = self.store
        if store is None:
            return None
        if isinstance(store, FileStore):
            return {
                "kind": "file", "root": str(store.root), "budget": store.budget
            }
        if isinstance(store, MemoryStore):
            return {"kind": "memory", "budget": store.budget}
        return {"kind": "custom"}

    def write(self) -> None:
        """Atomically rewrite the restart manifest (lock held; a no-op
        without one).

        The write is the same tmp + fsync + rename primitive the
        ``FileStore`` uses, so a crash at any instant leaves the old
        manifest or the new one — never a torn JSON document.
        """
        if self.manifest_path is None:
            return
        doc = {
            "format": MANIFEST_FORMAT_VERSION,
            "config": asdict(self.config),
            "store": self._store_descriptor(),
            "queries": list(self.entries.values()),
            "quarantined": {
                qid: {"failures": b.failures}
                for qid, b in self.breakers.open().items()
            },
        }
        atomic_write_bytes(
            self.manifest_path, json.dumps(doc, indent=2).encode("utf-8")
        )
        self.breakers.changed = False

    def flush(self) -> None:
        """Journal quarantine changes (collector tick).

        Best-effort: a full disk must not take the fleet down with it —
        queries keep serving and the next tick retries.
        """
        if self.manifest_path is None or not self.breakers.changed:
            return
        with self._lock:
            try:
                self.write()
            except OSError:
                pass  # still changed: the next tick retries

    def restore(
        self, entries: list, quarantined: "dict[str, int | None]"
    ) -> None:
        """Re-register journaled queries, re-arm the quarantines open at
        the crash and journal the result."""
        for entry in entries:
            self._restore_entry(entry)
        with self._lock:
            self.breakers.rearm(
                {q: f for q, f in quarantined.items() if q in self.payloads}
            )
            self.write()

    def _restore_entry(self, entry: dict) -> None:
        """Re-register one journaled query: store-first, source-second."""
        qid, key = entry["query_id"], entry.get("store_key")
        source = entry.get("source")
        payload = self._stored(key, entry.get("payload_sha256"))
        if payload is not None:
            if self.config.max_compile_states is not None:
                self._admit(pickle.loads(payload), f"restored query {qid!r}:")
            self._commit(qid, payload, entry["options"], key, source)
        elif source is None:
            raise SpannerError(
                f"cannot restore query {qid!r}: artifact {key!r} is not in "
                "the store and the manifest records no recompilable source"
            )
        else:
            self.register(
                _query_from_source(source), qid, None, **entry["options"]
            )
