"""The chaos oracle: robustness of the serve stack under injected
faults.

The robustness claim (ISSUE 9, after Derevenetc et al.): under *any*
seeded fault schedule, a client observes either an artifact identical
to what a clean compile produces or a typed, retryable error — never a
hang, never a corrupt payload, never a silent wrong answer — and once
the faults heal, the same workload converges to pure cache hits.

``test_seeded_schedules`` drives ``REPRO_CHAOS_SCHEDULES`` independent
fault schedules (default small so the tier-1 suite stays fast; ``make
serve-chaos`` and CI run hundreds) through live daemons under a
supervised :class:`ChaosHarness`.  Failures write a self-contained
repro bundle to ``chaos-failures/``.
"""

import base64
import hashlib
import json
import os
import pickle
import threading
import time

import pytest

from repro import OptLevel, compile_source
from repro.fuzz.litmus import mp_program, sb_program
from repro.serve import protocol
from repro.serve.chaos import ServeFaultPlan
from repro.serve.client import (
    CircuitBreaker,
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.daemon import ServeConfig
from repro.serve.store import ArtifactCache
from tests.serve.chaos_harness import ChaosHarness

SB = sb_program(2).source
MP = mp_program(2).source

#: (source, opt) pairs every schedule serves, repeatedly.
WORKLOAD = [(SB, "O0"), (SB, "O3"), (MP, "O0"), (MP, "O3")]

#: Codes a fault schedule may surface to a retrying client.  Anything
#: else (internal, compile_error, parse_error, ...) is an oracle
#: failure: chaos must never be misdiagnosed.
FAULT_CODES = frozenset(
    {"transport", "shutting_down", "overloaded", "circuit_open"}
)

#: Attempts per logical request, with a daemon-restart check between
#: each: enough to ride out any crash/refusal streak the bounded
#: fault probabilities can realistically produce.
SUPERVISED_ATTEMPTS = 12


def schedule_count() -> int:
    return int(os.environ.get("REPRO_CHAOS_SCHEDULES", "6"))


def budget_seconds() -> float:
    return float(
        os.environ.get("REPRO_CHAOS_BUDGET_SECONDS", "0") or 0
    )


@pytest.fixture(scope="module")
def expected():
    """The clean-compile identity of every workload artifact."""
    identity = {}
    for source, opt in WORKLOAD:
        program = compile_source(source, OptLevel(opt))
        identity[(source, opt)] = {
            "pretty": program.pretty(),
            "fences": len(program.delay_fences),
        }
    return identity


def verify_payload(result, want):
    """A served payload must be self-consistent and byte-identical to
    the clean compile (modulo per-process instruction uids)."""
    blob = base64.b64decode(result["artifact"])
    assert (
        hashlib.sha256(blob).hexdigest() == result["artifact_sha256"]
    ), "served artifact does not match its own digest"
    assert len(blob) == result["artifact_bytes"]
    program = pickle.loads(blob)
    assert program.pretty() == want["pretty"], (
        "served program differs from the clean compile"
    )
    assert len(program.delay_fences) == want["fences"]
    assert result["delay_fences"] == want["fences"]


def supervised_request(harness, source, opt):
    """One logical request under supervision: restart a crashed
    daemon between attempts, accept only typed retryable errors.

    Returns the ok payload; raises AssertionError if the request
    cannot complete within the attempt budget (a liveness failure) or
    any attempt surfaces a non-fault error code.
    """
    last = None
    for _attempt in range(SUPERVISED_ATTEMPTS):
        harness.ensure_alive()
        client = ServeClient(
            harness.config.socket_path,
            timeout=60.0,
            connect_timeout=2.0,
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.01, max_delay=0.2
            ),
            breaker=CircuitBreaker(failure_threshold=1000),
            retry_seed=0,
        )
        try:
            with client:
                return client.compile(source, opt=opt)
        except ServeError as exc:
            assert exc.code in FAULT_CODES, (
                f"fault schedule surfaced non-fault error "
                f"[{exc.code}] {exc.message}"
            )
            last = exc
    raise AssertionError(
        f"request never completed in {SUPERVISED_ATTEMPTS} supervised "
        f"attempts; last error: {last}"
    )


def run_schedule(seed, tmp_path, identity):
    """One seeded fault schedule end-to-end; returns its telemetry."""
    plan = ServeFaultPlan.from_seed(seed)
    cache_dir = str(tmp_path / f"store-{seed}")
    config = ServeConfig(
        socket_path=str(tmp_path / f"chaos-{seed}.sock"),
        cache_dir=cache_dir,
        batch_window=0.001,
        jobs=0,
        drain_timeout=5.0,
        max_pending=64,
        watchdog_timeout=5.0,
        chaos=plan,
    )
    cache = ArtifactCache(root=cache_dir)
    harness = ChaosHarness(config, cache=cache).start()
    telemetry = {
        "seed": seed,
        "plan": plan.describe(),
        "requests": 0,
        "restarts": 0,
        "blob_faults": 0,
    }
    try:
        # Phase 1: the storm.  Three passes over the workload with
        # store rot injected between passes; every request must end
        # in a verified artifact (typed errors are retried inside
        # supervised_request, so reaching here means success).
        for _round in range(3):
            for source, opt in WORKLOAD:
                result = supervised_request(harness, source, opt)
                verify_payload(result, identity[(source, opt)])
                telemetry["requests"] += 1
            harness.maybe_corrupt_store()
        # Phase 2: the weather clears.  One warming pass (quarantined
        # entries recompile), then a sweep that must be 100% hits.
        plan.heal_now()
        harness.ensure_alive()
        for source, opt in WORKLOAD:
            verify_payload(
                supervised_request(harness, source, opt),
                identity[(source, opt)],
            )
        for source, opt in WORKLOAD:
            result = supervised_request(harness, source, opt)
            verify_payload(result, identity[(source, opt)])
            assert result["cached"] is True, (
                "healed daemon must serve pure cache hits"
            )
    finally:
        telemetry["restarts"] = harness.restarts
        telemetry["blob_faults"] = harness.blob_faults
        harness.stop()
    return telemetry


def write_bundle(seed, plan_desc, error):
    os.makedirs("chaos-failures", exist_ok=True)
    path = os.path.join("chaos-failures", f"schedule-{seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "seed": seed,
            "plan": plan_desc,
            "error": str(error),
            "repro": (
                f"REPRO_CHAOS_SCHEDULES=1 REPRO_CHAOS_FIRST_SEED={seed} "
                "python -m pytest tests/serve/test_chaos.py"
                "::test_seeded_schedules"
            ),
        }, handle, indent=2)
    return path


def serve_threads():
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-serve")
        and thread.is_alive()
    ]


def open_fds():
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # non-Linux: skip the fd accounting
        return None


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = ServeFaultPlan.from_seed(11)
        b = ServeFaultPlan.from_seed(11)
        assert a.describe() == b.describe()
        actions_a = [a.response_action(100) for _ in range(50)]
        actions_b = [b.response_action(100) for _ in range(50)]
        assert actions_a == actions_b

    def test_parse_round_trips_describe(self):
        spec = (
            "refuse=0.1,garble=0.2,stall=0.1:0.02,"
            "crash.mid_batch=0.05,corrupt_blob=0.3,heal_after=2"
        )
        plan = ServeFaultPlan.parse(spec, seed=5)
        reparsed = ServeFaultPlan.parse(plan.describe(), seed=5)
        assert reparsed.describe() == plan.describe()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ServeFaultPlan.parse("refuse")
        with pytest.raises(ValueError):
            ServeFaultPlan.parse("nonsense=0.5")
        with pytest.raises(ValueError):
            ServeFaultPlan.parse("refuse=1.5")
        with pytest.raises(ValueError):
            ServeFaultPlan(crash={"bogus_phase": 0.1})

    def test_heal_now_silences_every_fault(self):
        plan = ServeFaultPlan(
            refuse=1.0, disconnect=1.0, garble=1.0, stall=1.0,
            crash={"mid_batch": 1.0}, corrupt_blob=1.0, wedge=1.0,
            wedge_seconds=9.0,
        )
        assert plan.refuse_connection()
        plan.heal_now()
        assert not plan.refuse_connection()
        assert plan.response_action(64) == ("deliver", 0)
        assert not plan.crash_at("mid_batch")
        assert plan.pool_wedge_seconds() == 0.0
        assert plan.blob_fault() is None

    def test_heal_after_clock(self):
        plan = ServeFaultPlan(refuse=1.0, heal_after=0.05)
        plan.start_clock()
        assert plan.refuse_connection()
        time.sleep(0.06)
        assert not plan.refuse_connection()

    def test_garble_preserves_frame_shape(self):
        plan = ServeFaultPlan(seed=3)
        frame = protocol.encode({"id": 1, "ok": True, "result": {}})
        garbled = plan.garble_frame(frame)
        assert garbled.endswith(b"\n")
        assert len(garbled) == len(frame)
        assert garbled != frame

    def test_from_seed_always_enables_something(self):
        for seed in range(50):
            plan = ServeFaultPlan.from_seed(seed)
            assert plan.describe() != "no-faults"


class TestChaosOracle:
    def test_seeded_schedules(self, tmp_path, expected):
        """The tentpole oracle: N seeded schedules, each must end in
        verified-artifact-or-typed-error, no leaks, full convergence.
        """
        first_seed = int(
            os.environ.get("REPRO_CHAOS_FIRST_SEED", "0")
        )
        count = schedule_count()
        budget = budget_seconds()
        started = time.monotonic()
        threads_before = len(serve_threads())
        fds_before = open_fds()
        completed = 0
        for seed in range(first_seed, first_seed + count):
            plan_desc = ServeFaultPlan.from_seed(seed).describe()
            try:
                run_schedule(seed, tmp_path, expected)
            except BaseException as exc:
                bundle = write_bundle(seed, plan_desc, exc)
                raise AssertionError(
                    f"chaos schedule seed={seed} failed "
                    f"(plan: {plan_desc}); bundle: {bundle}"
                ) from exc
            completed += 1
            if budget and time.monotonic() - started > budget:
                break
        assert completed >= 1
        # No leaked serve threads: wedged pool threads sleep a
        # bounded time, crashed daemons' threads exit with their
        # loops.  Give stragglers a moment to unwind.
        deadline = time.monotonic() + 30
        while (
            len(serve_threads()) > threads_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        leaked = serve_threads()
        assert len(leaked) <= threads_before, (
            f"leaked serve threads: {[t.name for t in leaked]}"
        )
        fds_after = open_fds()
        if fds_before is not None and fds_after is not None:
            assert fds_after <= fds_before + 8, (
                f"fd leak: {fds_before} -> {fds_after}"
            )

    def test_storm_then_heal_reaches_pure_hits_with_fixed_plan(
        self, tmp_path, expected
    ):
        """A deterministic, always-on fault mix (every class enabled)
        still converges once healed — the worst-case smoke."""
        plan = ServeFaultPlan(
            refuse=0.15, disconnect=0.1, truncate=0.1, garble=0.1,
            stall=0.1, stall_seconds=0.01,
            crash={"mid_batch": 0.05, "pre_cache_put": 0.05},
            corrupt_blob=0.5, truncate_blob=0.3, seed=1234,
        )
        cache_dir = str(tmp_path / "fixed-store")
        config = ServeConfig(
            socket_path=str(tmp_path / "fixed.sock"),
            cache_dir=cache_dir,
            batch_window=0.001,
            jobs=0,
            drain_timeout=5.0,
            chaos=plan,
        )
        cache = ArtifactCache(root=cache_dir)
        harness = ChaosHarness(config, cache=cache).start()
        try:
            for _round in range(2):
                for source, opt in WORKLOAD:
                    verify_payload(
                        supervised_request(harness, source, opt),
                        expected[(source, opt)],
                    )
                harness.maybe_corrupt_store()
            plan.heal_now()
            harness.ensure_alive()
            for source, opt in WORKLOAD:
                supervised_request(harness, source, opt)
            for source, opt in WORKLOAD:
                result = supervised_request(harness, source, opt)
                assert result["cached"] is True
        finally:
            harness.stop()

    def test_store_rot_is_quarantined_not_served(
        self, tmp_path, expected
    ):
        """Corrupting every blob between requests must never leak a
        corrupt payload: the store quarantines and recompiles."""
        plan = ServeFaultPlan(corrupt_blob=1.0, seed=9)
        cache_dir = str(tmp_path / "rot-store")
        config = ServeConfig(
            socket_path=str(tmp_path / "rot.sock"),
            cache_dir=cache_dir,
            batch_window=0.0,
            jobs=0,
            chaos=plan,
        )
        cache = ArtifactCache(root=cache_dir)
        harness = ChaosHarness(config, cache=cache).start()
        try:
            first = supervised_request(harness, SB, "O3")
            verify_payload(first, expected[(SB, "O3")])
            assert harness.maybe_corrupt_store() >= 1
            second = supervised_request(harness, SB, "O3")
            verify_payload(second, expected[(SB, "O3")])
            assert second["cached"] is False, (
                "the corrupt entry must be recompiled, not served"
            )
            assert cache.quarantined_entries() >= 1
            assert cache.corrupt >= 1
            third = supervised_request(harness, SB, "O3")
            verify_payload(third, expected[(SB, "O3")])
            assert third["cached"] is True
        finally:
            harness.stop()

    def test_crash_restart_loop_reuses_the_store(
        self, tmp_path, expected
    ):
        """Deterministic crash drills: every batch dies mid-flight
        until the entry is cached; the supervisor restarts through
        stale sockets each time."""
        plan = ServeFaultPlan(
            crash={"pre_cache_put": 1.0}, seed=2, heal_after=0.0
        )
        cache_dir = str(tmp_path / "crash-store")
        config = ServeConfig(
            socket_path=str(tmp_path / "crash.sock"),
            cache_dir=cache_dir,
            batch_window=0.0,
            jobs=0,
            chaos=plan,
        )
        cache = ArtifactCache(root=cache_dir)
        harness = ChaosHarness(config, cache=cache).start()
        try:
            with pytest.raises(ServeError):
                # Every attempt crashes the daemon pre-cache-put; the
                # per-call client (no supervision here) sees transport.
                ServeClient(
                    config.socket_path,
                    retry=RetryPolicy(max_attempts=1),
                ).compile(SB, opt="O0")
            plan.heal_now()
            # The crash is asynchronous: the client sees its aborted
            # connection a beat before the daemon thread finishes
            # dying.  Wait for the death to land.
            deadline = time.monotonic() + 10
            while harness.alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            restarted = harness.ensure_alive()
            assert restarted, "the injected crash must kill the daemon"
            result = supervised_request(harness, SB, "O0")
            verify_payload(result, expected[(SB, "O0")])
            assert harness.restarts >= 1
        finally:
            harness.stop()
