"""Tests for the crash-safe artifact store (`repro.runtime.store`).

The contract: entries round-trip byte-identically through the versioned,
checksummed blob format; every artifact type the fleet ships
(``AutomatonTables``, extractor spanners, ``CompiledEqualityQuery``)
survives a pickle → FileStore → unpickle cycle behaving identically;
anything torn or bit-flipped is quarantined and surfaced as a picklable
:class:`~repro.errors.ArtifactCorruptError` — after which the next read
is a clean miss; a bumped format version is rejected, never guessed at;
a byte budget evicts least-recently-used entries; and ``MemoryStore``
counts and corrupts exactly like ``FileStore``.
"""

from __future__ import annotations

import hashlib
import pickle
import struct

import pytest

from repro.errors import ArtifactCorruptError
from repro.runtime.store import (
    FileStore,
    MemoryStore,
    STORE_FORMAT_VERSION,
    decode_artifact,
    encode_artifact,
)

from chaos import damage_store


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "artifacts")


class TestBlobFormat:
    def test_round_trip(self):
        payload = b"the compiled artifact bytes"
        assert decode_artifact(encode_artifact(payload)) == payload

    def test_truncated_header(self):
        with pytest.raises(ArtifactCorruptError) as exc:
            decode_artifact(b"SJ", key="k1")
        assert exc.value.reason == "truncated"
        assert exc.value.key == "k1"

    def test_truncated_payload(self):
        blob = encode_artifact(b"x" * 100)[:-40]
        with pytest.raises(ArtifactCorruptError) as exc:
            decode_artifact(blob)
        assert exc.value.reason == "truncated"

    def test_bad_magic(self):
        blob = b"XXXXX" + encode_artifact(b"payload")[5:]
        with pytest.raises(ArtifactCorruptError) as exc:
            decode_artifact(blob)
        assert exc.value.reason == "bad-magic"

    def test_flipped_payload_byte_fails_checksum(self):
        blob = bytearray(encode_artifact(b"payload"))
        blob[-1] ^= 0xFF
        with pytest.raises(ArtifactCorruptError) as exc:
            decode_artifact(bytes(blob))
        assert exc.value.reason == "bad-checksum"

    def test_future_format_version_is_rejected(self):
        # A store written by a newer build must be quarantined, not
        # misparsed: bump the version field, fix nothing else.
        payload = b"payload"
        blob = bytearray(encode_artifact(payload))
        struct.pack_into(">H", blob, 5, STORE_FORMAT_VERSION + 1)
        with pytest.raises(ArtifactCorruptError) as exc:
            decode_artifact(bytes(blob))
        assert exc.value.reason == "bad-version"

    def test_corrupt_error_pickles_with_fields(self):
        err = ArtifactCorruptError("k9", "bad-checksum", "detail text")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.key, clone.reason, clone.detail) == (
            "k9", "bad-checksum", "detail text"
        )
        assert "quarantined" in str(clone)


class TestStoreContract:
    def test_miss_then_put_then_hit(self, store):
        assert store.get("sdeadbeef") is None
        store.put("sdeadbeef", b"artifact")
        assert store.get("sdeadbeef") == b"artifact"
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["entries"] == 1

    def test_overwrite_same_key(self, store):
        store.put("k1", b"old")
        store.put("k1", b"new")
        assert store.get("k1") == b"new"
        assert store.stats()["entries"] == 1

    def test_invalid_keys_rejected(self, store):
        for bad in ("", "../escape", "a/b", ".hidden", "sp ace"):
            with pytest.raises(ValueError):
                store.put(bad, b"x")
            with pytest.raises(ValueError):
                store.get(bad)

    def test_torn_write_quarantined_then_clean_miss(self, store):
        damage_store(store, torn={0})
        store.put("k1", b"artifact bytes" * 10)
        with pytest.raises(ArtifactCorruptError) as exc:
            store.get("k1")
        assert exc.value.reason == "truncated"
        # The corrupt entry was quarantined: reads are clean misses now.
        assert store.get("k1") is None
        stats = store.stats()
        assert stats["corrupt_quarantined"] == 1
        # Recovery: recompile-and-re-put makes the key serve again.
        store.put("k1", b"artifact bytes" * 10)
        assert store.get("k1") == b"artifact bytes" * 10

    def test_corrupt_write_fails_checksum(self, store):
        damage_store(store, corrupt={1})
        store.put("healthy", b"fine")
        store.put("flipped", b"payload")
        assert store.get("healthy") == b"fine"
        with pytest.raises(ArtifactCorruptError) as exc:
            store.get("flipped")
        assert exc.value.reason == "bad-checksum"
        assert store.get("flipped") is None

    def test_verify_reports_without_quarantining(self, store):
        damage_store(store, corrupt={1})
        store.put("good", b"fine")
        store.put("bad", b"payload")
        report = store.verify()
        assert report == {"good": "ok", "bad": "corrupt"}
        # verify() is read-only: the corrupt entry is still there, and
        # only an actual get() quarantines it.
        assert store.stats()["corrupt_quarantined"] == 0
        assert sorted(store.keys()) == ["bad", "good"]

    def test_budget_evicts_lru(self, tmp_path):
        blob_size = len(encode_artifact(b"x" * 100))
        store = FileStore(tmp_path / "arts", budget=3 * blob_size)
        for i in range(3):
            store.put(f"k{i}", b"x" * 100)
        # Refresh k0's recency: k1 becomes the LRU victim.
        assert store.get("k0") is not None
        store.put("k3", b"x" * 100)
        assert store.stats()["evicted"] == 1
        assert store.get("k1") is None
        assert store.get("k0") is not None
        assert store.get("k3") is not None

    def test_single_entry_over_budget_is_not_stored(self, store):
        tiny = MemoryStore(budget=10)
        tiny.put("k1", b"x" * 1000)
        assert tiny.get("k1") is None
        assert tiny.stats()["puts"] == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MemoryStore(budget=0)
        with pytest.raises(ValueError):
            MemoryStore(budget=-5)


class TestFileStoreDurability:
    def test_quarantine_renames_to_corrupt(self, tmp_path):
        store = FileStore(tmp_path / "arts")
        damage_store(store, torn={0})
        store.put("k1", b"payload")
        with pytest.raises(ArtifactCorruptError):
            store.get("k1")
        assert store.quarantined() == ["k1.corrupt"]
        assert store.gc_quarantined() == 1
        assert store.quarantined() == []

    def test_no_tmp_files_left_behind(self, tmp_path):
        root = tmp_path / "arts"
        store = FileStore(root)
        for i in range(5):
            store.put(f"k{i}", b"payload" * i)
        leftovers = [p.name for p in root.iterdir()
                     if not p.name.endswith(".art")]
        assert leftovers == []

    def test_entries_survive_reopen(self, tmp_path):
        root = tmp_path / "arts"
        FileStore(root).put("k1", b"persisted")
        reopened = FileStore(root)
        assert reopened.get("k1") == b"persisted"
        assert reopened.stats()["hits"] == 1

    def test_on_disk_bitrot_detected(self, tmp_path):
        # Corruption landing *after* the write (a decaying disk rather
        # than a torn write): flip one byte of the file directly.
        root = tmp_path / "arts"
        store = FileStore(root)
        store.put("k1", b"payload bytes")
        path = root / "k1.art"
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError):
            store.get("k1")
        assert store.get("k1") is None


class TestArtifactRoundTrips:
    """Every registered artifact type through a FileStore cycle."""

    DOCS = ["say hi ho", "ümläut 42", "", "a1b2c3", "x" * 500]

    def _cycle(self, artifact, tmp_path):
        store = FileStore(tmp_path / "arts")
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        key = "s" + hashlib.sha256(payload).hexdigest()[:24]
        store.put(key, payload)
        revived = store.get(key)
        assert revived == payload  # byte-identical through the framing
        return pickle.loads(revived)

    def test_automaton_tables(self, tmp_path):
        from repro.runtime.compiled import CompiledSpanner

        spanner = CompiledSpanner("(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)")
        tables = self._cycle(spanner.tables, tmp_path)
        revived = CompiledSpanner.from_tables(tables)
        for doc in self.DOCS:
            assert list(revived.stream(doc)) == list(spanner.stream(doc))

    def test_extractor_spanner_tables(self, tmp_path):
        from repro.extractors import compile_extractor
        from repro.runtime.compiled import CompiledSpanner

        spanner = compile_extractor(".*n{[0-9]+}.*")
        tables = self._cycle(spanner.tables, tmp_path)
        revived = CompiledSpanner.from_tables(tables)
        for doc in self.DOCS:
            assert list(revived.stream(doc)) == list(spanner.stream(doc))

    def test_compiled_equality_query(self, tmp_path):
        from repro.queries import CompiledEvaluator, RegexCQ

        query = RegexCQ(
            ["x", "y"],
            [".*x{[a-z]+}.*", ".*y{[a-z]+}.*"],
            equalities=[["x", "y"]],
        )
        engine = CompiledEvaluator().equality_runtime(query)
        assert engine is not None
        revived = self._cycle(engine, tmp_path)
        docs = ["abc abc", "zz yy zz", "one two one two"]
        for doc in docs:
            assert list(revived.evaluate(doc)) == list(engine.evaluate(doc))
