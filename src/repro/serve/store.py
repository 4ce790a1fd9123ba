"""Content-addressed, cross-process artifact store.

The store generalizes the original flat ``$REPRO_CACHE_DIR`` compile
cache into the substrate every compile entry point — ``repro serve``
and ``compile_with_cache`` / ``compile_many`` — shares:

* **Content addressing.**  A key is a SHA-256 over a canonical JSON
  rendering of the artifact's *inputs*: the artifact kind (``compile``,
  ``analyze``, ``simulate``), the source text, the pipeline parameters
  (optimization level, analysis level, machine configuration), the
  store schema, ``repro.__version__``, and a fingerprint of the
  installed compiler sources.  Same inputs ⇒ same key, in every
  process, on every machine running the same compiler — which is what
  makes the cache safely shareable between the daemon and plain CLI
  runs.

* **Sharding.**  Entries live under ``root/<first two hex chars>/``
  (256 shards), so no single directory grows unboundedly and shard
  scans stay cheap.

* **LRU eviction.**  A hit bumps the entry's mtime; when the
  ``REPRO_CACHE_MAX_ENTRIES`` / ``REPRO_CACHE_MAX_BYTES`` budgets are
  set, a put evicts oldest-mtime entries until the store is back under
  budget (blob bytes; headers are not counted).  With no budget
  configured — the default — puts never scan the store, so the
  unbounded case has zero eviction overhead.

* **Integrity.**  An entry is one file: a ``sha256:<hex>\n`` header
  line, then the blob, written together by one atomic replace; every
  read re-hashes the blob and compares it with the header from the
  same read.  A mismatch — bit rot, truncation, injected corruption —
  *quarantines* the entry (the file moves to ``root/quarantine/``) and
  reports a miss, so a corrupt artifact is recompiled transparently
  and can never be served, and the bad bytes are preserved for
  forensics instead of being re-read forever.

* **Telemetry.**  Hits, misses, puts, evictions, corruption
  detections and quarantines are counted on the store instance *and*
  mirrored to the active :mod:`repro.perf` profiler
  (``artifact_store.hits`` / ``.misses`` / ``.evictions`` / ``.puts``
  / ``.corrupt`` / ``.quarantined``), so ``--profile`` JSON and the
  daemon's ``stats`` op both expose the hit rate.

Writes are atomic (temp file + ``os.replace``) and reads tolerate
concurrent eviction, so many processes can share one root directory
without locks; the worst case is a recomputation, never corruption.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Bump to invalidate every existing entry on key/format changes.
STORE_SCHEMA = 3

#: Length of the ``sha256:<64 hex>\n`` header that leads every entry.
HEADER_BYTES = 72

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """A cheap digest of the installed ``repro`` sources.

    Hashes every module's (relative path, mtime, size) so in-place
    edits to the compiler invalidate the cache without a version bump.
    """
    global _fingerprint
    if _fingerprint is not None:
        return _fingerprint
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(package_dir)):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            stat = os.stat(path)
            rel = os.path.relpath(path, package_dir)
            digest.update(
                f"{rel}:{stat.st_mtime_ns}:{stat.st_size};".encode()
            )
    _fingerprint = digest.hexdigest()
    return _fingerprint


def _header(blob: bytes) -> bytes:
    return b"sha256:" + hashlib.sha256(blob).hexdigest().encode() + b"\n"


def default_root() -> str:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-compile")


def _env_int(name: str) -> Optional[int]:
    """A non-negative integer budget from ``$name`` (unset or empty =
    None, no budget); anything else raises ValueError naming it."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(
            f"${name} must be a non-negative integer, got {raw!r}"
        )
    return value


def artifact_key(kind: str, **parts: Any) -> str:
    """The content address for an artifact of ``kind`` with ``parts``.

    Canonical derivation (documented in docs/SERVING.md): a SHA-256
    over ``schema``, ``repro.__version__``, :func:`code_fingerprint`,
    ``kind``, and the canonical JSON (sorted keys, no whitespace) of
    ``parts``.  Every part must be JSON-serializable.
    """
    import repro

    digest = hashlib.sha256()
    digest.update(f"schema={STORE_SCHEMA};".encode())
    digest.update(f"version={repro.__version__};".encode())
    digest.update(f"code={code_fingerprint()};".encode())
    digest.update(f"kind={kind};".encode())
    digest.update(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


class ArtifactCache:
    """A sharded, LRU-evicting, content-addressed blob store on disk."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_root()
        #: LRU budgets, from the environment of every entry point.
        self.max_entries = _env_int("REPRO_CACHE_MAX_ENTRIES")
        self.max_bytes = _env_int("REPRO_CACHE_MAX_BYTES")
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    # -- key & layout ------------------------------------------------------

    def key(self, kind: str, **parts: Any) -> str:
        return artifact_key(kind, **parts)

    def path_for(self, key: str) -> str:
        """``root/<shard>/<rest>.blob`` — shard = first two hex chars."""
        return os.path.join(self.root, key[:2], f"{key[2:]}.blob")

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    # -- raw bytes ---------------------------------------------------------

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The verified blob for ``key``, or None (miss).

        A hit refreshes LRU order.  The blob is re-hashed and compared
        with the header read with it; a mismatch quarantines the entry
        and reports a miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._count("misses")
            return None
        blob = data[HEADER_BYTES:]
        if data[:HEADER_BYTES] != _header(blob):
            self._count("corrupt")
            self.quarantine(key)
            self._count("misses")
            return None
        try:
            os.utime(path, None)  # LRU bump; best-effort
        except OSError:
            pass
        self._count("hits")
        return blob

    def put_bytes(self, key: str, data: bytes) -> None:
        """Atomically stores the header and ``data`` as one file;
        evicts if a budget is exceeded."""
        path = self.path_for(key)
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_header(data))
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
                raise
        except OSError:
            return  # read-only or full filesystem: caching is best-effort
        self._count("puts")
        if self.max_entries is not None or self.max_bytes is not None:
            self.evict_to_budget()

    # -- quarantine --------------------------------------------------------

    def quarantine(self, key: str) -> bool:
        """Moves a corrupt entry to ``root/quarantine/`` for forensics.

        Returns True if a blob was actually moved.  The entry stops
        being served immediately; the next request recompiles and
        overwrites it.  Races (another process quarantining or
        evicting the same entry) are benign: a missing file is fine.
        """
        quarantine = self.quarantine_dir()
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(
                self.path_for(key),
                os.path.join(quarantine, f"{key}.blob"),
            )
        except OSError:
            return False
        self._count("quarantined")
        return True

    def quarantined_entries(self) -> int:
        """How many blobs sit in the quarantine directory."""
        try:
            names = os.listdir(self.quarantine_dir())
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(".blob"))

    # -- pickled objects ---------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Unpickles the blob for ``key``; a corrupt blob is
        quarantined and reported as a miss."""
        data = self.get_bytes(key)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # The header matched but the payload does not unpickle:
            # quarantine it rather than re-reading the bad bytes on
            # every future request.
            self._count("corrupt")
            self.quarantine(key)
            return None

    def put(self, key: str, value: Any) -> None:
        self.put_bytes(key, pickle.dumps(value))

    # -- enumeration & eviction --------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[str, float, int]]:
        """Yields (path, mtime, blob size) for every stored entry."""
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in sorted(names):
                if not name.endswith(".blob"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                yield path, stat.st_mtime, max(
                    0, stat.st_size - HEADER_BYTES
                )

    def evict_to_budget(self) -> int:
        """Removes oldest-mtime entries until within budget.

        Returns the number of entries evicted.  Safe under concurrent
        eviction from other processes: a missing file is skipped.
        """
        entries: List[Tuple[str, float, int]] = list(self.iter_entries())
        count = len(entries)
        total = sum(size for _path, _mtime, size in entries)
        over_entries = (
            self.max_entries is not None and count > self.max_entries
        )
        over_bytes = self.max_bytes is not None and total > self.max_bytes
        if not over_entries and not over_bytes:
            return 0
        evicted = 0
        entries.sort(key=lambda entry: (entry[1], entry[0]))
        for path, _mtime, size in entries:
            if (
                (self.max_entries is None or count <= self.max_entries)
                and (self.max_bytes is None or total <= self.max_bytes)
            ):
                break
            try:
                os.unlink(path)
            except OSError:
                pass  # another process won the race
            count -= 1
            total -= size
            evicted += 1
        if evicted:
            self._count("evictions", evicted)
        return evicted

    def clear(self) -> None:
        for path, _mtime, _size in list(self.iter_entries()):
            with contextlib.suppress(OSError):
                os.unlink(path)

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)
        from repro.perf import profiler

        profiler.count(f"artifact_store.{name}", amount)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot: counters plus an on-disk scan."""
        entries = list(self.iter_entries())
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _p, _m, size in entries),
            "shards": len({os.path.dirname(p) for p, _m, _s in entries}),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "quarantine_entries": self.quarantined_entries(),
            "hit_rate": self.hit_rate(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }


# -- the process-default store ---------------------------------------------

_default: Optional[ArtifactCache] = None


def default_cache() -> ArtifactCache:
    """The process-wide store (created from the environment on demand)."""
    global _default
    if _default is None:
        _default = ArtifactCache()
    return _default


def set_default_cache(
    cache: Optional[ArtifactCache],
) -> Optional[ArtifactCache]:
    """Installs ``cache`` as the process default; returns the previous.

    The daemon uses this to point every in-process compile at its
    configured store; tests use it to isolate cache roots.  Passing
    None resets to environment-derived defaults.
    """
    global _default
    previous = _default
    _default = cache
    return previous
