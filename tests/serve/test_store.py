"""The content-addressed artifact store: keys, shards, LRU, telemetry."""

import hashlib
import os
import pickle

from repro.perf import Profiler, profiled
from repro.serve.store import (
    ArtifactCache,
    artifact_key,
    default_cache,
    set_default_cache,
)


def make_cache(tmp_path, **kwargs):
    return ArtifactCache(root=str(tmp_path / "store"), **kwargs)


class TestKeys:
    def test_deterministic(self):
        a = artifact_key("compile", source="x", level="O3")
        b = artifact_key("compile", source="x", level="O3")
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_any_part_changes_the_key(self):
        base = artifact_key("compile", source="x", level="O3")
        assert artifact_key("compile", source="y", level="O3") != base
        assert artifact_key("compile", source="x", level="O1") != base
        assert artifact_key("analyze", source="x", level="O3") != base

    def test_part_order_does_not_matter(self):
        assert artifact_key("simulate", procs=4, seed=0, source="s") == \
            artifact_key("simulate", source="s", seed=0, procs=4)

    def test_matches_compile_pool_derivation(self, isolated_cache_dir):
        """The pool and the daemon must share one key space."""
        from repro.perf.parallel import cache_key

        assert cache_key("prog", "O3") == artifact_key(
            "compile", source="prog", level="O3"
        )


class TestBlobs:
    def test_round_trip_bytes(self, tmp_path):
        cache = make_cache(tmp_path)
        key = cache.key("compile", source="s", level="O0")
        assert cache.get_bytes(key) is None
        cache.put_bytes(key, b"payload")
        assert cache.get_bytes(key) == b"payload"

    def test_round_trip_objects(self, tmp_path):
        cache = make_cache(tmp_path)
        value = {"cycles": 12, "snapshot": [1.0, 2.0]}
        cache.put("k" * 64, value)
        assert cache.get("k" * 64) == value

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "a" * 64
        cache.put(key, [1, 2, 3])
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"\x80\x05 garbage that will not unpickle")
        assert cache.get(key) is None

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "b" * 64
        cache.put_bytes(key, b"one")
        cache.put_bytes(key, b"two")
        assert cache.get_bytes(key) == b"two"
        assert len(list(cache.iter_entries())) == 1


class TestSharding:
    def test_path_layout(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "ab" + "c" * 62
        path = cache.path_for(key)
        assert os.path.basename(os.path.dirname(path)) == "ab"
        assert path.endswith(f"{'c' * 62}.blob")

    def test_keys_spread_across_shards(self, tmp_path):
        """Content addressing distributes entries over the 256 shards."""
        cache = make_cache(tmp_path)
        keys = [
            hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(128)
        ]
        for key in keys:
            cache.put_bytes(key, b"x")
        shards = {
            os.path.basename(os.path.dirname(path))
            for path, _mtime, _size in cache.iter_entries()
        }
        # 128 uniform draws over 256 shards: collisions happen, but a
        # heavily skewed layout (everything in a handful of dirs) would
        # mean the sharding is broken.
        assert len(shards) > 50
        assert all(len(shard) == 2 for shard in shards)
        for key in keys:
            assert cache.get_bytes(key) == b"x"


class TestEviction:
    def test_lru_order_oldest_mtime_goes_first(self, tmp_path):
        cache = make_cache(tmp_path, max_entries=2)
        k1, k2, k3 = "1" * 64, "2" * 64, "3" * 64
        cache.put_bytes(k1, b"one")
        cache.put_bytes(k2, b"two")
        # Make k1 the older entry, then *touch* it with a hit so k2
        # becomes the LRU victim.
        os.utime(cache.path_for(k1), (1000, 1000))
        os.utime(cache.path_for(k2), (2000, 2000))
        assert cache.get_bytes(k1) == b"one"  # refreshes k1's mtime
        cache.put_bytes(k3, b"three")
        assert cache.get_bytes(k2) is None, "LRU entry must be evicted"
        assert cache.get_bytes(k1) == b"one"
        assert cache.get_bytes(k3) == b"three"
        assert cache.evictions == 1

    def test_max_bytes_budget(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=100)
        for index in range(5):
            key = str(index) * 64
            cache.put_bytes(key, b"x" * 40)
            os.utime(cache.path_for(key), (1000 + index, 1000 + index))
        entries = list(cache.iter_entries())
        assert sum(size for _p, _m, size in entries) <= 100
        # The newest entries survive.
        assert cache.get_bytes("4" * 64) is not None
        assert cache.get_bytes("0" * 64) is None

    def test_no_budget_never_evicts(self, tmp_path):
        cache = make_cache(tmp_path)
        for index in range(50):
            cache.put_bytes(str(index % 10) * 64, b"y" * 1000)
        assert cache.evictions == 0
        assert len(list(cache.iter_entries())) == 10

    def test_clear(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_bytes("9" * 64, b"z")
        cache.clear()
        assert list(cache.iter_entries()) == []


class TestIntegrity:
    def test_put_writes_digest_sidecar(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "a1" + "0" * 62
        cache.put_bytes(key, b"payload")
        with open(cache.digest_path_for(key)) as handle:
            recorded = handle.read().strip()
        assert recorded == hashlib.sha256(b"payload").hexdigest()

    def test_bitflip_is_detected_and_quarantined(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "b2" + "0" * 62
        cache.put_bytes(key, b"correct bytes")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"tampered bytes")
        assert cache.get_bytes(key) is None
        # The bad bytes moved to quarantine — off the serving path,
        # preserved for forensics, never re-read as a live entry.
        assert not os.path.exists(cache.path_for(key))
        assert not os.path.exists(cache.digest_path_for(key))
        assert cache.quarantined_entries() == 1
        quarantined = os.path.join(
            cache.quarantine_dir(), f"{key}.blob"
        )
        with open(quarantined, "rb") as handle:
            assert handle.read() == b"tampered bytes"
        assert (cache.corrupt, cache.quarantined) == (1, 1)

    def test_truncated_blob_is_detected(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "c3" + "0" * 62
        cache.put_bytes(key, b"0123456789")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"01234")
        assert cache.get_bytes(key) is None
        assert cache.quarantined_entries() == 1

    def test_recompile_after_quarantine_serves_again(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "d4" + "0" * 62
        cache.put_bytes(key, b"good")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"evil")
        assert cache.get_bytes(key) is None
        cache.put_bytes(key, b"good again")  # the transparent recompile
        assert cache.get_bytes(key) == b"good again"
        assert cache.quarantined_entries() == 1

    def test_unpicklable_blob_is_quarantined(self, tmp_path):
        """Satellite fix: a corrupt blob must not be re-read forever."""
        cache = make_cache(tmp_path)
        key = "e5" + "0" * 62
        cache.put(key, [1, 2, 3])
        # Overwrite blob AND sidecar consistently: the digest matches,
        # but the payload cannot unpickle.
        bad = b"\x80\x05 garbage that will not unpickle"
        with open(cache.path_for(key), "wb") as handle:
            handle.write(bad)
        with open(cache.digest_path_for(key), "w") as handle:
            handle.write(hashlib.sha256(bad).hexdigest())
        assert cache.get(key) is None
        assert not os.path.exists(cache.path_for(key))
        assert cache.quarantined_entries() == 1
        assert cache.corrupt == 1

    def test_blob_without_sidecar_is_quarantined(self, tmp_path):
        """Puts write the sidecar first and no pre-sidecar entry is
        addressable by a current key, so a bare blob is damage."""
        cache = make_cache(tmp_path)
        key = "f6" + "0" * 62
        cache.put_bytes(key, b"payload")
        os.unlink(cache.digest_path_for(key))
        assert cache.get_bytes(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert cache.quarantined_entries() == 1
        assert not os.path.exists(cache.path_for(key))

    def test_eviction_removes_sidecars(self, tmp_path):
        cache = make_cache(tmp_path, max_entries=1)
        k1, k2 = "1" * 64, "2" * 64
        cache.put_bytes(k1, b"one")
        os.utime(cache.path_for(k1), (1000, 1000))
        cache.put_bytes(k2, b"two")
        assert not os.path.exists(cache.path_for(k1))
        assert not os.path.exists(cache.digest_path_for(k1))

    def test_clear_removes_sidecars(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "3" * 64
        cache.put_bytes(key, b"x")
        cache.clear()
        assert not os.path.exists(cache.digest_path_for(key))

    def test_quarantine_is_invisible_to_entry_scans(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "a7" + "0" * 62
        cache.put_bytes(key, b"bytes")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"rot")
        assert cache.get_bytes(key) is None
        assert list(cache.iter_entries()) == []
        assert cache.stats()["entries"] == 0
        assert cache.stats()["quarantine_entries"] == 1

    def test_corrupt_counters_mirrored_to_profiler(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "b8" + "0" * 62
        with profiled(Profiler()) as prof:
            cache.put_bytes(key, b"v")
            with open(cache.path_for(key), "wb") as handle:
                handle.write(b"X")
            cache.get_bytes(key)
        counters = prof.to_dict()["counters"]
        assert counters["artifact_store.corrupt"] == 1
        assert counters["artifact_store.quarantined"] == 1


class TestTelemetry:
    def test_instance_counters(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "c" * 64
        assert cache.get_bytes(key) is None
        cache.put_bytes(key, b"v")
        assert cache.get_bytes(key) == b"v"
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)
        assert cache.hit_rate() == 0.5

    def test_profiler_counters_mirrored(self, tmp_path):
        """artifact_store.* counters surface in --profile JSON."""
        cache = make_cache(tmp_path, max_entries=1)
        with profiled(Profiler()) as prof:
            cache.get_bytes("d" * 64)          # miss
            cache.put_bytes("d" * 64, b"v")    # put
            cache.get_bytes("d" * 64)          # hit
            cache.put_bytes("e" * 64, b"w")    # put + eviction
        counters = prof.to_dict()["counters"]
        assert counters["artifact_store.misses"] == 1
        assert counters["artifact_store.hits"] == 1
        assert counters["artifact_store.puts"] == 2
        assert counters["artifact_store.evictions"] == 1

    def test_stats_snapshot(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_bytes("f" * 64, b"blob")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 4
        assert stats["shards"] == 1
        assert stats["puts"] == 1


class TestDefaultCache:
    def test_env_root_and_reset(self, isolated_cache_dir):
        cache = default_cache()
        assert cache.root == isolated_cache_dir
        replacement = ArtifactCache(root=isolated_cache_dir + "-other")
        previous = set_default_cache(replacement)
        assert previous is cache
        assert default_cache() is replacement
        set_default_cache(previous)

    def test_compile_cache_rides_the_store(self, isolated_cache_dir):
        """load_cached/store_cached round-trip through the store."""
        from repro.perf.parallel import load_cached, store_cached

        assert load_cached("src-text", "O1") is None
        store_cached("src-text", "O1", {"fake": "program"})
        assert load_cached("src-text", "O1") == {"fake": "program"}
        root = default_cache().root
        blobs = [
            name
            for _dir, _subdirs, names in os.walk(root)
            for name in names
            if name.endswith(".blob")
        ]
        assert len(blobs) == 1

    def test_disabled_cache_skips_disk(
        self, isolated_cache_dir, monkeypatch
    ):
        from repro.perf.parallel import load_cached, store_cached

        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        store_cached("s", "O0", {"x": 1})
        assert load_cached("s", "O0") is None
        assert list(default_cache().iter_entries()) == []

    def test_every_compile_face_writes_the_same_entry(
        self, isolated_cache_dir, tmp_path, monkeypatch
    ):
        """compile_with_cache and compile_many (serial and pooled) are
        one store-fronted path: one key, one program."""
        from repro.fuzz.litmus import mp_program, sb_program
        from repro.perf.parallel import (
            cache_key,
            compile_many,
            compile_with_cache,
        )

        sb, mp = sb_program(2).source, mp_program(2).source
        pair = [(sb, "O3"), (mp, "O3")]  # two misses: the pool runs
        faces = {
            "with_cache": lambda: compile_with_cache(sb, "O3"),
            "many_serial": lambda: compile_many(pair, processes=0)[0],
            "many_pool": lambda: compile_many(pair, processes=2)[0],
        }
        texts = set()
        for name, face in faces.items():
            # A fresh store per face, found through the environment so
            # pool workers agree on it under any start method.
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            set_default_cache(None)
            with profiled(Profiler()) as prof:
                texts.add(face().pretty())
            cache = default_cache()
            assert cache.get(cache_key(sb, "O3")) is not None, name
            stored = len(list(cache.iter_entries()))
            assert stored == (2 if name.startswith("many") else 1), name
            assert prof.counters["compile.pool.jobs"] == stored, name
            assert "compile.pool.serial_fallbacks" not in prof.counters
        assert len(texts) == 1

    def test_pickled_program_round_trip(self, isolated_cache_dir):
        cache = default_cache()
        key = cache.key("compile", source="s", level="O3")
        payload = pickle.dumps({"module": "m"})
        cache.put_bytes(key, payload)
        assert cache.get_bytes(key) == payload
