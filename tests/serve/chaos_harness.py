"""A supervised daemon under chaos, for the chaos oracle.

Test-side counterpart of :mod:`repro.serve.chaos`: the fault *plan* and
the daemon hooks that act on it ship in ``src/`` (``repro serve
--chaos``); the supervisor that restarts a crashed daemon and rots the
on-disk store between workload steps is only ever driven by
``test_chaos.py``, so it lives here.
"""

import contextlib
import os
from typing import List, Optional

from repro.serve.chaos import ServeFaultPlan
from repro.serve.daemon import ServeConfig, ServerThread
from repro.serve.store import ArtifactCache


class ChaosHarness:
    """A supervised daemon under chaos: restart on crash, rot the store.

    Plays the operator's supervisor (systemd, a k8s liveness probe):
    :meth:`ensure_alive` notices an injected crash and starts a fresh
    daemon on the same socket and store — exercising stale-socket
    recovery and warm-store reuse on every restart.
    :meth:`maybe_corrupt_store` applies the plan's blob faults to the
    shared on-disk store between workload steps.
    """

    def __init__(
        self,
        config: ServeConfig,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        assert config.chaos is not None, "harness needs a chaos plan"
        self.config = config
        self.plan: ServeFaultPlan = config.chaos
        self.cache = cache or ArtifactCache(
            root=config.cache_dir,
            max_entries=config.max_entries,
            max_bytes=config.max_bytes,
        )
        self.restarts = 0
        self.blob_faults = 0
        self.thread: Optional[ServerThread] = None

    def start(self) -> "ChaosHarness":
        self.plan.start_clock()
        self.thread = ServerThread(
            self.config, cache=self.cache
        ).start()
        return self

    def alive(self) -> bool:
        return (
            self.thread is not None and self.thread._thread.is_alive()
        )

    def ensure_alive(self) -> bool:
        """Restarts the daemon if an injected crash took it down.

        Returns True when a restart happened.  The dead daemon leaves
        its socket file behind (crashes never unlink), so every
        restart goes through stale-socket recovery.
        """
        if self.alive():
            return False
        if self.thread is not None:
            # Reap the dead thread; release any still-open listener fd
            # exactly like the OS would for a dead process.
            self.thread.kill(timeout=5.0)
        self.restarts += 1
        self.thread = ServerThread(
            self.config, cache=self.cache
        ).start()
        return True

    def maybe_corrupt_store(self) -> int:
        """Applies the plan's blob faults to stored entries.

        Each on-disk blob rolls the plan's ``corrupt_blob`` /
        ``truncate_blob`` dice once; victims are bit-flipped in the
        middle or cut to half length, in place.  Returns the number of
        blobs damaged.  The store's digest check must turn every one
        into a quarantine + transparent recompile, never a served
        corrupt payload.
        """
        damaged = 0
        for path in self._blob_paths():
            fault = self.plan.blob_fault()
            if fault is None:
                continue
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                if not data:
                    continue
                if fault == "corrupt":
                    middle = len(data) // 2
                    data = (
                        data[:middle]
                        + bytes([data[middle] ^ 0xFF])
                        + data[middle + 1:]
                    )
                else:
                    data = data[: max(1, len(data) // 2)]
                with open(path, "wb") as handle:
                    handle.write(data)
            except OSError:
                continue  # store swept it concurrently
            damaged += 1
        self.blob_faults += damaged
        return damaged

    def _blob_paths(self) -> List[str]:
        paths: List[str] = []
        root = self.cache.root
        try:
            shards = sorted(os.listdir(root))
        except OSError:
            return paths
        for shard in shards:
            if len(shard) != 2:
                continue  # skip quarantine/ and friends
            shard_dir = os.path.join(root, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            paths.extend(
                os.path.join(shard_dir, name)
                for name in names
                if name.endswith(".blob")
            )
        return paths

    def stop(self, timeout: float = 30.0) -> None:
        """Heals the plan and drains the daemon gracefully."""
        self.plan.heal_now()
        if self.thread is None:
            return
        if self.alive():
            self.thread.stop(timeout)
            if self.thread._thread.is_alive():
                self.thread.kill(timeout)
        else:
            self.thread.kill(timeout)
        with contextlib.suppress(OSError):
            os.unlink(self.config.socket_path)
