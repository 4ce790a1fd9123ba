"""End-to-end daemon tests: serving, dedup, caching, crash recovery."""

import base64
import json
import pickle
import socket
import threading
from dataclasses import asdict

import pytest

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.fuzz.litmus import lb_program, mp_program, sb_program
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

SB = sb_program(2).source
MP = mp_program(2).source
LB = lb_program(2).source
APP = get_app("em3d").source(4)

BAD_SOURCE = "int x = ; this does not parse"


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


@pytest.fixture
def server(socket_path, isolated_cache_dir):
    thread = ServerThread(ServeConfig(
        socket_path=socket_path,
        cache_dir=isolated_cache_dir,
        batch_window=0.0,
    ))
    thread.start()
    try:
        yield thread
    finally:
        thread.stop()


class TestBasics:
    def test_ping(self, server, socket_path):
        with ServeClient(socket_path) as client:
            result = client.ping()
        assert result["pong"] is True
        assert result["version"] == 2
        assert isinstance(result["pid"], int)

    def test_stats_shape(self, server, socket_path):
        with ServeClient(socket_path) as client:
            client.ping()
            stats = client.stats()
        assert stats["draining"] is False
        assert stats["requests"]["ping"] == 1
        assert stats["cache"]["root"] == server.server.cache.root
        assert "hit_rate" in stats["cache"]

    def test_live_socket_is_not_stolen(self, server, socket_path):
        second = ServerThread(
            ServeConfig(socket_path=socket_path)
        )
        with pytest.raises(OSError, match="live daemon"):
            second.start()

    def test_pipelined_requests_on_one_connection(
        self, server, socket_path
    ):
        """Many requests down the pipe before reading any response."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(60)
        sock.connect(socket_path)
        handle = sock.makefile("rwb")
        for index in range(5):
            handle.write(
                json.dumps({"id": index, "op": "ping"}).encode() + b"\n"
            )
        handle.flush()
        seen = set()
        for _ in range(5):
            response = json.loads(handle.readline())
            assert response["ok"] is True
            seen.add(response["id"])
        assert seen == {0, 1, 2, 3, 4}
        sock.close()


class TestByteIdentity:
    @pytest.mark.parametrize("opt", ["O0", "O1", "O3", "O4"])
    @pytest.mark.parametrize(
        "source",
        [pytest.param(SB, id="sb"), pytest.param(APP, id="em3d")],
    )
    def test_served_equals_cold_compile(
        self, server, socket_path, opt, source
    ):
        """A served artifact is the program a cold compile produces."""
        with ServeClient(socket_path) as client:
            program, result = client.compiled_program(source, opt=opt)
        cold = compile_source(source, OptLevel(opt))
        # Instruction uids come from a per-process counter, so raw
        # delay_fences sets shift between compiles; the printed form,
        # fence count and codegen report are the stable identity.
        assert program.pretty() == cold.pretty()
        assert len(program.delay_fences) == len(cold.delay_fences)
        assert asdict(program.report) == asdict(cold.report)
        assert result["opt"] == opt
        assert result["delay_fences"] == len(cold.delay_fences)
        assert result["artifact_bytes"] > 0

    def test_second_request_is_a_cache_hit_with_identical_bytes(
        self, server, socket_path
    ):
        with ServeClient(socket_path) as client:
            first = client.compile(MP, opt="O3")
            second = client.compile(MP, opt="O3")
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["artifact"] == first["artifact"]
        assert second["artifact_sha256"] == first["artifact_sha256"]
        assert second["cache_key"] == first["cache_key"]

    def test_daemon_entries_serve_in_process_compiles(
        self, server, socket_path
    ):
        """The store is shared: a daemon compile is a CLI cache hit."""
        from repro.perf import Profiler, profiled
        from repro.perf.parallel import compile_with_cache

        with ServeClient(socket_path) as client:
            served = client.compile(LB, opt="O1")
        with profiled(Profiler()) as prof:
            program = compile_with_cache(LB, "O1")
        assert prof.counters.get("compile.disk_cache_hits") == 1
        artifact = pickle.loads(base64.b64decode(served["artifact"]))
        assert program.pretty() == artifact.pretty()
        assert program.delay_fences == artifact.delay_fences


class TestOps:
    def test_analyze(self, server, socket_path):
        with ServeClient(socket_path) as client:
            result = client.analyze(SB, level="sync")
        assert result["level"] == "sync"
        assert result["stats"]["num_accesses"] > 0
        assert isinstance(result["delay_edges"], list)

    def test_simulate(self, server, socket_path):
        with ServeClient(socket_path) as client:
            result = client.simulate(SB, opt="O3", procs=2, seed=1)
        assert result["cycles"] > 0
        assert result["procs"] == 2
        assert result["machine"] == "cm5"
        assert result["memory_model"] == "sc"
        assert "R" in result["snapshot"]

    def test_simulate_is_cached_and_deterministic(
        self, server, socket_path
    ):
        with ServeClient(socket_path) as client:
            first = client.simulate(MP, procs=2, seed=7)
            second = client.simulate(MP, procs=2, seed=7)
        assert second["cached"] is True
        assert second["cycles"] == first["cycles"]
        assert second["snapshot"] == first["snapshot"]

    def test_simulate_under_weak_memory(self, server, socket_path):
        with ServeClient(socket_path) as client:
            result = client.simulate(
                SB, opt="O0", procs=2, memory_model="tso"
            )
        assert result["memory_model"] == "tso"


class TestErrors:
    def test_compile_error_code(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(BAD_SOURCE)
        assert excinfo.value.code == "compile_error"

    def test_unknown_machine_is_bad_request(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(SB, machine="cray")
        assert excinfo.value.code == "bad_request"

    def test_unknown_opt_is_bad_request(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(SB, opt="O9")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op_is_bad_request(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request("transmogrify")
        assert excinfo.value.code == "bad_request"

    def test_invalid_json_is_parse_error(self, server, socket_path):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(socket_path)
        handle = sock.makefile("rwb")
        handle.write(b"{this is not json\n")
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "parse_error"
        sock.close()

    def test_errors_do_not_poison_the_connection(
        self, server, socket_path
    ):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError):
                client.compile(BAD_SOURCE)
            assert client.ping()["pong"] is True

    def test_bad_source_in_batch_does_not_fail_neighbors(
        self, socket_path, isolated_cache_dir
    ):
        """A wide batch window coalesces a good and a bad compile into
        one batch; the bad one must get its own verdict."""
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.25,
        ))
        thread.start()
        try:
            outcomes = {}

            def run(name, source):
                with ServeClient(socket_path) as client:
                    try:
                        outcomes[name] = client.compile(source, opt="O0")
                    except ServeError as exc:
                        outcomes[name] = exc

            threads = [
                threading.Thread(target=run, args=("good", SB)),
                threading.Thread(target=run, args=("bad", BAD_SOURCE)),
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=120)
            assert isinstance(outcomes["bad"], ServeError)
            assert outcomes["bad"].code == "compile_error"
            assert outcomes["good"]["opt"] == "O0"
        finally:
            thread.stop()

    def test_bad_source_in_pooled_batch_compiles_neighbors_once(
        self, socket_path, isolated_cache_dir
    ):
        """Through the pool (jobs=2) a bad source is still only its own
        request's verdict: the finished neighbours are kept, not thrown
        away and recompiled in-process."""
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.5,
            jobs=2,
        ))
        thread.start()
        try:
            sources = {"sb": SB, "mp": MP, "bad": BAD_SOURCE}
            outcomes = {}
            barrier = threading.Barrier(len(sources))

            def run(name):
                with ServeClient(socket_path) as client:
                    barrier.wait(timeout=30)
                    try:
                        outcomes[name] = client.compile(
                            sources[name], opt="O0"
                        )
                    except ServeError as exc:
                        outcomes[name] = exc

            workers = [
                threading.Thread(target=run, args=(name,))
                for name in sources
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert isinstance(outcomes["bad"], ServeError)
            assert outcomes["bad"].code == "compile_error"
            assert outcomes["sb"]["artifact_sha256"]
            assert outcomes["mp"]["artifact_sha256"]
            counters = thread.server.profiler.counters
            assert counters.get("serve.batches") == 1
            assert counters.get("compile.pool.jobs") == 3
            # Every compile ran in a pool worker, none in the daemon.
            assert counters.get("pipeline.compiles", 0) == 0
            assert "compile.pool.serial_fallbacks" not in counters
        finally:
            thread.stop()


class TestDedup:
    def test_concurrent_identical_requests_compile_once(
        self, socket_path, isolated_cache_dir
    ):
        """N concurrent identical compiles -> exactly one compile."""
        clients = 8
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.3,
            jobs=0,
        ))
        thread.start()
        try:
            barrier = threading.Barrier(clients)
            results = [None] * clients

            def run(index):
                with ServeClient(socket_path) as client:
                    barrier.wait(timeout=30)
                    results[index] = client.compile(APP, opt="O3")

            workers = [
                threading.Thread(target=run, args=(index,))
                for index in range(clients)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=180)
            assert all(result is not None for result in results)
            digests = {result["artifact_sha256"] for result in results}
            assert len(digests) == 1

            counters = thread.server.profiler.counters
            # The load-bearing assertion: one underlying compile.
            assert counters.get("compile.pool.jobs", 0) == 1
            assert counters.get("pipeline.compiles", 0) == 1
            # Every other request either joined the in-flight future
            # (dedup) or arrived after the blob landed (cache hit).
            cache_hits = sum(
                1 for result in results if result["cached"]
            )
            assert (
                counters.get("serve.dedup_hits", 0) + cache_hits
                == clients - 1
            )
        finally:
            thread.stop()


class TestCrashRecovery:
    def test_restart_reuses_on_disk_store_and_stale_socket(
        self, socket_path, isolated_cache_dir
    ):
        config = ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
        )
        first = ServerThread(config)
        first.start()
        try:
            with ServeClient(socket_path) as client:
                cold = client.compile(SB, opt="O3")
            assert cold["cached"] is False
        finally:
            first.kill()  # simulated crash: no drain, socket left behind
        assert not first._thread.is_alive()

        import os

        assert os.path.exists(socket_path), "crash leaves a stale socket"
        second = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
        ))
        second.start()  # must reclaim the stale socket
        try:
            with ServeClient(socket_path) as client:
                warm = client.compile(SB, opt="O3")
            assert warm["cached"] is True
            assert warm["artifact_sha256"] == cold["artifact_sha256"]
            counters = second.server.profiler.counters
            assert counters.get("compile.pool.jobs", 0) == 0
        finally:
            second.stop()

    def test_killed_daemon_never_closes_a_successors_listener(
        self, tmp_path, isolated_cache_dir
    ):
        """kill() closes the listening fd by hand; the dead server's
        socket object must not close that fd *number* again when it is
        collected — by then it is the next daemon's listener."""
        import gc

        def start(name):
            return ServerThread(ServeConfig(
                socket_path=str(tmp_path / name),
                cache_dir=isolated_cache_dir,
            )).start()

        first = start("a.sock")
        first.kill()
        second = start("b.sock")  # reuses the freed fd number
        try:
            del first
            gc.collect()
            with ServeClient(str(tmp_path / "b.sock")) as client:
                assert client.ping()["pong"] is True
        finally:
            second.stop()


class TestShutdown:
    def test_graceful_shutdown_removes_socket(
        self, socket_path, isolated_cache_dir
    ):
        import os

        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        ))
        thread.start()
        with ServeClient(socket_path) as client:
            assert client.shutdown() == {"draining": True}
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()
        assert not os.path.exists(socket_path)

    def test_work_after_shutdown_is_rejected(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            drain_timeout=5.0,
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                client.shutdown()
                with pytest.raises(ServeError) as excinfo:
                    client.compile(SB)
            # Either the drain answered with shutting_down (possibly
            # after retries) or the connection was torn down first;
            # both refuse the work.
            assert excinfo.value.code in ("shutting_down", "transport")
        finally:
            thread.stop()


class TestMemoryOnlyMode:
    def test_use_cache_false_never_touches_disk(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            use_cache=False,
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                first = client.compile(LB, opt="O0")
                second = client.compile(LB, opt="O0")
            assert first["cached"] is False
            assert second["cached"] is False
            assert list(thread.server.cache.iter_entries()) == []
        finally:
            thread.stop()


class TestAdmissionControl:
    def test_overloaded_when_pending_queue_fills(
        self, socket_path, isolated_cache_dir
    ):
        """Excess work is shed with a typed error + retry hint, not
        queued without bound."""
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
            max_pending=2,
        ))
        thread.start()
        try:
            # Pipeline one slow compile (occupies the batch worker)
            # plus many distinct fast ones over a raw connection; once
            # two are pending, the rest must be refused.
            sources = [APP] + [SB + "\n" * i for i in range(1, 11)]
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            sock.settimeout(120)
            handle = sock.makefile("rwb")
            for index, source in enumerate(sources):
                handle.write(json.dumps({
                    "id": index, "op": "compile",
                    "source": source, "opt": "O0",
                }).encode() + b"\n")
            handle.flush()
            outcomes = {}
            for _ in sources:
                response = json.loads(handle.readline().decode())
                if response["ok"]:
                    outcomes[response["id"]] = "ok"
                else:
                    outcomes[response["id"]] = response["error"]
            handle.close()
            sock.close()
            shed = [
                error for error in outcomes.values()
                if error != "ok"
            ]
            assert shed, "with max_pending=2, some work must be shed"
            for error in shed:
                assert error["code"] == "overloaded"
                assert error["retry_after_ms"] >= 0
            served = [v for v in outcomes.values() if v == "ok"]
            assert served, "admission control must not refuse everything"
            counters = thread.server.profiler.counters
            assert counters.get("serve.overloaded", 0) == len(shed)
        finally:
            thread.stop()

    def test_zero_max_pending_disables_shedding(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
            max_pending=0,
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                assert client.compile(SB, opt="O0")["cached"] is False
        finally:
            thread.stop()


class TestDeadlines:
    def test_expired_deadline_is_a_typed_error(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.request(
                        "compile", source=APP, opt="O3", deadline_ms=1
                    )
            assert excinfo.value.code == "deadline_exceeded"
            counters = thread.server.profiler.counters
            assert counters.get("serve.deadline_exceeded", 0) == 1
        finally:
            thread.stop()

    def test_generous_deadline_serves_normally(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.0,
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                result = client.request(
                    "compile", source=SB, opt="O0",
                    deadline_ms=120_000,
                )
            assert result["cached"] is False
            assert result["artifact_sha256"]
        finally:
            thread.stop()

    def test_abandoned_compile_is_cancelled_before_dispatch(
        self, socket_path, isolated_cache_dir
    ):
        """A queued job all of whose waiters gave up never compiles."""
        import time as time_module

        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.3,  # the deadline expires inside the window
        ))
        thread.start()
        try:
            with ServeClient(socket_path) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.request(
                        "compile", source=MP, opt="O3", deadline_ms=20
                    )
                assert excinfo.value.code == "deadline_exceeded"
                deadline = time_module.monotonic() + 10
                while time_module.monotonic() < deadline:
                    counters = thread.server.profiler.counters
                    if counters.get("serve.abandoned", 0):
                        break
                    time_module.sleep(0.05)
            counters = thread.server.profiler.counters
            assert counters.get("serve.abandoned", 0) == 1
            assert counters.get("compile.pool.jobs", 0) == 0, (
                "the abandoned job must never reach a compiler"
            )
        finally:
            thread.stop()


class TestWatchdog:
    def test_wedged_pool_trips_watchdog_and_goes_serial(
        self, socket_path, isolated_cache_dir
    ):
        from repro.serve.chaos import ServeFaultPlan

        thread = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
            batch_window=0.2,
            jobs=2,
            watchdog_timeout=0.2,
            chaos=ServeFaultPlan(wedge=1.0, wedge_seconds=1.5, seed=0),
        ))
        thread.start()
        try:
            results = {}

            def compile_one(name, source):
                with ServeClient(socket_path) as client:
                    results[name] = client.compile(source, opt="O0")

            workers = [
                threading.Thread(
                    target=compile_one, args=("sb", SB)
                ),
                threading.Thread(
                    target=compile_one, args=("mp", MP)
                ),
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert set(results) == {"sb", "mp"}, (
                "the serial fallback must still answer every request"
            )
            for result in results.values():
                assert result["artifact_sha256"]
            with ServeClient(socket_path) as client:
                stats = client.stats()
            assert stats["watchdog_trips"] >= 1
            assert stats["pool_healthy"] is False
            assert stats["counters"].get("serve.chaos.wedged", 0) >= 1
            # The pool's own telemetry reaches the daemon's profiler.
            assert stats["counters"].get("compile.pool.timeouts", 0) >= 1
            assert stats["counters"].get(
                "compile.pool.serial_fallbacks", 0
            ) >= 1
            assert not [
                worker for worker in threading.enumerate()
                if worker.name == "repro-serve-pool-batch"
            ], "no helper thread is left behind a wedged batch"
        finally:
            thread.stop()

    def test_watchdog_trip_does_not_drain_the_cli_daemon(
        self, socket_path, isolated_cache_dir
    ):
        """``repro serve`` drains on SIGTERM, and its forked pool
        workers share that handler's wakeup fd: killing the wedged
        workers must not read as a shutdown request."""
        import os
        import subprocess
        import sys
        import time as time_module

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--cache-dir", isolated_cache_dir,
                "--jobs", "2", "--batch-window", "0.3",
                "--watchdog-timeout", "0.2", "--chaos", "wedge=1:1.5",
            ],
            env=dict(os.environ, PYTHONPATH=src),
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time_module.monotonic() + 30
            while not os.path.exists(socket_path):
                assert time_module.monotonic() < deadline
                time_module.sleep(0.05)
            results = {}

            def compile_one(name, source):
                with ServeClient(socket_path) as client:
                    results[name] = client.compile(source, opt="O0")

            workers = [
                threading.Thread(target=compile_one, args=("sb", SB)),
                threading.Thread(target=compile_one, args=("mp", MP)),
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert set(results) == {"sb", "mp"}
            time_module.sleep(0.3)  # a drain would have begun by now
            with ServeClient(socket_path) as client:
                stats = client.stats()
                assert stats["watchdog_trips"] >= 1
                assert stats["draining"] is False
                assert client.compile(LB, opt="O0")["artifact_sha256"]
                client.shutdown()
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)


class TestSocketRace:
    def test_two_daemons_racing_a_stale_socket(
        self, socket_path, isolated_cache_dir
    ):
        """Satellite: stale-socket recovery racing a live daemon start.

        A crashed daemon leaves its socket file behind; two fresh
        daemons then race to claim the path.  Exactly one may win —
        the loser must fail with a clear OSError, and the winner's
        listener must survive the loser's probe (no stolen socket, no
        orphaned file)."""
        import os

        # The crash: a daemon dies without unlinking its socket.
        crashed = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        ))
        crashed.start()
        crashed.kill()
        assert os.path.exists(socket_path)

        contenders = [
            ServerThread(ServeConfig(
                socket_path=socket_path,
                cache_dir=isolated_cache_dir,
                batch_window=0.0,
            ))
            for _ in range(2)
        ]
        failures = {}

        def start_one(index):
            try:
                contenders[index].start()
            except BaseException as exc:  # noqa: BLE001 - recorded
                failures[index] = exc

        racers = [
            threading.Thread(target=start_one, args=(index,))
            for index in range(2)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=60)

        assert len(failures) == 1, (
            f"exactly one contender must lose the race: {failures!r}"
        )
        loser_index = next(iter(failures))
        assert isinstance(failures[loser_index], OSError)
        assert "live daemon" in str(failures[loser_index])
        winner = contenders[1 - loser_index]
        try:
            # The winner's listener survived the loser's probe.
            with ServeClient(socket_path) as client:
                assert client.ping()["pong"] is True
                assert client.compile(SB, opt="O0")["artifact_sha256"]
        finally:
            winner.stop()
        assert not os.path.exists(socket_path), (
            "graceful shutdown must leave no orphaned socket file"
        )

    def test_start_against_live_daemon_fails_cleanly(
        self, server, socket_path, isolated_cache_dir
    ):
        second = ServerThread(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        ))
        with pytest.raises(OSError, match="live daemon"):
            second.start()
        # The incumbent is untouched.
        with ServeClient(socket_path) as client:
            assert client.ping()["pong"] is True
