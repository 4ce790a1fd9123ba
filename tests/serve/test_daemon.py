"""End-to-end daemon tests: serving, dedup, caching, crash recovery."""

import base64
import hashlib
import json
import os
import pickle
import socket
import threading
from dataclasses import asdict

import pytest

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.fuzz.litmus import lb_program, mp_program, sb_program
from repro.serve import (
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServeError,
    Server,
    protocol,
)
from tests.serve.chaos_harness import ServerThread

SB = sb_program(2).source
MP = mp_program(2).source
LB = lb_program(2).source
APP = get_app("em3d").source(4)

BAD_SOURCE = "int x = ; this does not parse"

#: The compile reply fields that depend on no instruction uid.
REPLY_FIELDS = ("opt", "report", "delay_fences")

#: One request of each artifact op.
ARTIFACT_REQUESTS = {
    "compile": {"op": "compile", "source": MP, "opt": "O3"},
    "analyze": {"op": "analyze", "source": MP, "level": "sync"},
    "simulate": {"op": "simulate", "source": MP, "procs": 2, "seed": 3},
}


class RaisesOnLoad:
    """Pickles fine; unpickling calls ``int(1, 2, 3)``: a TypeError."""

    def __reduce__(self):
        return (int, (1, 2, 3))


def raw_lines(socket_path, requests, timeout=10):
    """Sends ``requests`` (each with its own id) in one write on one
    connection, so they queue together and form one batch; returns
    the reply lines, bytes as received, in arrival order."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(socket_path)
    try:
        sock.sendall(b"".join(
            json.dumps(request).encode() + b"\n" for request in requests
        ))
        with sock.makefile("rb") as handle:
            return [handle.readline() for _ in requests]
    finally:
        sock.close()


def pipelined(socket_path, requests):
    """:func:`raw_lines` with ids 0, 1, ...; returns {id: response}."""
    lines = raw_lines(socket_path, [
        {"id": index, **request} for index, request in enumerate(requests)
    ])
    return {response["id"]: response for response in map(json.loads, lines)}


def expected_result(server, request, result, cached):
    """The ``result`` a reply to ``request`` must carry, its values
    computed in this process (a compile's artifact checked against a
    cold compile and its own digest, then taken from ``result``)."""
    request = protocol.validate_request(request)
    if request["op"] == "compile":
        cold = compile_source(request["source"], OptLevel(request["opt"]))
        artifact = base64.b64decode(result["artifact"])
        assert pickle.loads(artifact).pretty() == cold.pretty()
        payload = {
            "opt": request["opt"],
            "report": asdict(cold.report),
            "delay_fences": len(cold.delay_fences),
            "artifact": result["artifact"],
            "artifact_sha256": hashlib.sha256(artifact).hexdigest(),
            "artifact_bytes": len(artifact),
        }
    elif request["op"] == "analyze":
        payload = server._run_analyze(request)
    else:
        payload = server._run_simulate(request)
    return {**payload, "cached": cached,
            "cache_key": server._key_for(request)}


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


@pytest.fixture
def server(socket_path, isolated_cache_dir):
    thread = ServerThread(Server(ServeConfig(
        socket_path=socket_path,
        cache_dir=isolated_cache_dir,
    )))
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
        assert result["version"] == 3
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
            Server(ServeConfig(socket_path=socket_path))
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


class TestHitPath:
    """A hit reads one store entry, the reply it answers, and sends it
    as stored: no second entry, no unpickle, no put."""

    def test_hit_unpickles_nothing(self, server, socket_path, monkeypatch):
        """A hit of each op sends its entry as stored: no unpickle, no
        base64 and no ``protocol.encode``."""
        requests = [
            {"id": op, **request}
            for op, request in ARTIFACT_REQUESTS.items()
        ]

        def results():
            lines = raw_lines(socket_path, requests)
            return {reply["id"]: reply["result"]
                    for reply in map(json.loads, lines)}

        def refuse(*_args, **_kwargs):
            raise AssertionError("a hit decoded or re-encoded its entry")

        cold = results()
        for module, name in ((pickle, "loads"), (base64, "b64encode"),
                             (protocol, "encode")):
            monkeypatch.setattr(module, name, refuse)
        hits = results()
        for op, first in cold.items():
            assert (first["cached"], hits[op]["cached"]) == (False, True), op
            assert {**hits[op], "cached": False} == first, op

    def test_cli_written_entry_is_served_with_no_put(
        self, server, socket_path
    ):
        from repro.perf.parallel import compile_with_cache

        cache = server.server.cache
        compile_with_cache(LB, "O1")  # the daemon's store is the default
        puts = cache.puts
        with ServeClient(socket_path) as client:
            hit = client.compile(LB, opt="O1")
            assert hit["cached"] is True
            assert cache.puts == puts
            cache.clear()
            cold = client.compile(LB, opt="O1")
        assert cold["cached"] is False
        for field in REPLY_FIELDS:
            assert hit[field] == cold[field], field

    def test_damaged_entry_is_quarantined_and_recompiled(
        self, server, socket_path
    ):
        from repro.perf.parallel import cache_key

        cache = server.server.cache
        key = cache_key(SB, "O3")
        with ServeClient(socket_path) as client:
            cold = client.compile(SB, opt="O3")
            path = cache.path_for(key)
            with open(path, "rb") as handle:
                data = bytearray(handle.read())
            data[-1] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(data)
            fresh = client.compile(SB, opt="O3")
            hit = client.compile(SB, opt="O3")
        assert (fresh["cached"], hit["cached"]) == (False, True)
        assert os.path.exists(
            os.path.join(cache.quarantine_dir(), f"{key}.blob")
        )
        for field in REPLY_FIELDS:
            assert fresh[field] == cold[field], field

    def test_blob_raising_on_load_is_quarantined_and_recompiled(
        self, server, socket_path
    ):
        """Bytes that are not an entry (here a bare pickle that raises
        on load) are corrupt, not ``internal`` on every later request
        for the key."""
        from repro.perf.parallel import cache_key

        cache = server.server.cache
        key = cache_key(SB, "O0")
        cache.put_bytes(key, pickle.dumps(RaisesOnLoad()))
        with ServeClient(socket_path) as client:
            fresh = client.compile(SB, opt="O0")
            again = client.compile(SB, opt="O0")
        assert fresh["cached"] is False
        assert fresh["opt"] == "O0"
        assert os.path.exists(
            os.path.join(cache.quarantine_dir(), f"{key}.blob")
        )
        assert again["cached"] is True

    def test_one_entry_and_one_put_per_request(self, server, socket_path):
        """Store deltas per request: a cold request is one miss, one
        put and one new entry; a hit is one store hit and nothing
        else.  The cold simulate's compile is the cold compile's entry,
        a store hit."""
        requests = [
            ("compile", {"opt": "O3"}, 0),
            ("analyze", {"level": "sync"}, 0),
            ("simulate", {"opt": "O3", "procs": 2}, 1),
        ]
        names = ("entries", "puts", "hits", "misses")

        def store(client):
            stats = client.stats()["cache"]
            return [stats[name] for name in names]

        def delta(client, op, params):
            before = store(client)
            result = client.request(op, source=SB, **params)
            after = store(client)
            changes = {name: after[index] - before[index]
                       for index, name in enumerate(names)}
            return result["cached"], changes

        with ServeClient(socket_path) as client:
            for op, params, inner_hits in requests:
                assert delta(client, op, params) == (False, {
                    "entries": 1, "puts": 1, "hits": inner_hits,
                    "misses": 1,
                }), op
            for op, params, _inner_hits in requests:
                assert delta(client, op, params) == (True, {
                    "entries": 0, "puts": 0, "hits": 1, "misses": 0,
                }), op

    def test_quarantined_read_counts_a_miss_not_a_hit(
        self, server, socket_path
    ):
        """A read whose verified bytes are not an entry is one miss and
        one corrupt entry, never a hit; the recompile is one put."""
        from repro.perf.parallel import cache_key

        cache = server.server.cache
        cache.put_bytes(cache_key(SB, "O0"), pickle.dumps(RaisesOnLoad()))
        names = ("hits", "misses", "corrupt", "quarantined", "puts",
                 "entries")
        with ServeClient(socket_path) as client:
            before = client.stats()["cache"]
            assert client.compile(SB, opt="O0")["cached"] is False
            after = client.stats()["cache"]
        assert {name: after[name] - before[name] for name in names} == {
            "hits": 0, "misses": 1, "corrupt": 1, "quarantined": 1,
            "puts": 1, "entries": 0,
        }
        assert after["hit_rate"] == 0.0


class TestSplice:
    """Every artifact reply is the stored entry spliced after the
    reply's per-request fields: one ASCII line that parses to the
    reply ``protocol.encode`` would build."""

    @pytest.mark.parametrize(
        "mode", ["cold", "hit", "dedup_waiter", "memory_only"]
    )
    @pytest.mark.parametrize("op", sorted(ARTIFACT_REQUESTS))
    def test_reply_is_one_ascii_line_equal_to_an_encoded_reply(
        self, socket_path, isolated_cache_dir, monkeypatch, op, mode
    ):
        if mode == "memory_only":
            monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        server = Server(ServeConfig(
            socket_path=socket_path, cache_dir=isolated_cache_dir,
        ))
        thread = ServerThread(server).start()
        request = ARTIFACT_REQUESTS[op]
        try:
            if mode == "hit":
                raw_lines(socket_path, [{"id": 0, **request}])
            lines = raw_lines(socket_path, [
                {"id": index, **request}
                for index in range(2 if mode == "dedup_waiter" else 1)
            ])
            dedup_hits = server.profiler.counters.get("serve.dedup_hits")
        finally:
            thread.stop()
        assert dedup_hits == (1 if mode == "dedup_waiter" else None)
        for line in lines:
            assert line.isascii() and line.endswith(b"\n"), line[-80:]
            assert line.count(b"\n") == 1
            reply = json.loads(line)
            want = expected_result(
                server, request, reply["result"], mode == "hit"
            )
            assert reply == json.loads(
                protocol.encode(protocol.ok_response(reply["id"], want))
            )

    @pytest.mark.parametrize("request_id", [
        0, -7, 2 ** 70, 1.5, 'a "quoted" \\ ü\n', True, False, None,
    ])
    def test_request_ids_echo_back_unchanged(
        self, server, socket_path, request_id
    ):
        request = {"id": request_id, "op": "compile", "source": SB,
                   "opt": "O0"}
        miss, hit = (
            json.loads(raw_lines(socket_path, [request])[0])
            for _ in range(2)
        )
        for reply in (miss, hit):
            assert reply["id"] == request_id
            assert type(reply["id"]) is type(request_id)
        assert (miss["result"]["cached"], hit["result"]["cached"]) == (
            False, True
        )

    @pytest.mark.parametrize("blob", [
        pytest.param(b'["opt","O0"]', id="json_array"),
        pytest.param(b'{"opt":"O0"}\n{"opt":"O0"}', id="newline"),
        pytest.param('{"opt":"Ö"}'.encode(), id="non_ascii"),
    ])
    def test_stored_non_entry_is_quarantined_and_recompiled(
        self, server, socket_path, blob
    ):
        from repro.perf.parallel import cache_key

        cache = server.server.cache
        key = cache_key(SB, "O0")
        cache.put_bytes(key, blob)
        with ServeClient(socket_path) as client:
            fresh = client.compile(SB, opt="O0")
            again = client.compile(SB, opt="O0")
        assert (fresh["cached"], again["cached"]) == (False, True)
        assert again == {**fresh, "cached": True}
        quarantined = os.path.join(cache.quarantine_dir(), f"{key}.blob")
        with open(quarantined, "rb") as handle:
            assert handle.read().endswith(b"\n" + blob)


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

    def test_oversize_line_is_answered_bad_request(
        self, socket_path, isolated_cache_dir, monkeypatch
    ):
        """A line over MAX_LINE_BYTES is answered ``bad_request`` (its id
        unread, so null) before the connection closes; the client
        surfaces that without a retry."""
        from repro.serve import protocol

        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path, cache_dir=isolated_cache_dir,
        ))).start()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30)
            sock.connect(socket_path)
            sock.sendall(protocol.encode(
                {"id": 1, "op": "compile", "source": "x" * 10_000}
            ))
            with sock.makefile("rb") as handle:
                response = json.loads(handle.readline())
                assert handle.readline() == b""
            sock.close()
            assert (response["id"], response["ok"]) == (None, False)
            assert response["error"]["code"] == "bad_request"
            with ServeClient(socket_path) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.compile("x" * 10_000)
                assert excinfo.value.code == "bad_request"
                assert client.ping()["pong"] is True
        finally:
            thread.stop()

    def test_errors_do_not_poison_the_connection(
        self, server, socket_path
    ):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeError):
                client.compile(BAD_SOURCE)
            assert client.ping()["pong"] is True

    def test_bad_source_in_batch_does_not_fail_neighbors(
        self, server, socket_path
    ):
        """A bad source pipelined between good ones queues with them and
        forms one batch; it gets its own verdict, and each neighbour is
        compiled exactly once."""
        responses = pipelined(socket_path, [
            {"op": "compile", "source": source, "opt": "O0"}
            for source in (SB, MP, BAD_SOURCE)
        ])
        assert responses[0]["result"]["artifact_sha256"]
        assert responses[1]["result"]["artifact_sha256"]
        assert responses[0]["result"]["opt"] == "O0"
        assert responses[2]["error"]["code"] == "compile_error"
        counters = server.server.profiler.counters
        assert counters.get("serve.batches") == 1
        assert counters.get("compile.jobs") == 3


class TestDispatcher:
    def test_exception_without_message_is_internal_and_next_miss_answers(
        self, server, socket_path, monkeypatch
    ):
        """An exception whose text is empty still gets a one-line
        ``internal`` verdict, and the dispatcher keeps serving."""
        import repro

        analyze_source = repro.analyze_source

        def failing_on_mp(source, level):
            if source == MP:
                raise AssertionError()
            return analyze_source(source, level)

        monkeypatch.setattr(repro, "analyze_source", failing_on_mp)
        with ServeClient(
            socket_path, timeout=10.0, retry=RetryPolicy(max_attempts=1)
        ) as client:
            with pytest.raises(ServeError) as excinfo:
                client.analyze(MP)
            assert excinfo.value.code == "internal"
            assert excinfo.value.message == "AssertionError"
            assert client.analyze(SB)["level"] == "sync"

    def test_failed_batch_settles_internal_and_dispatch_goes_on(
        self, server, socket_path, monkeypatch
    ):
        compile_jobs = server.server._compile
        calls = []

        def broken_once(jobs):
            calls.append(jobs)
            if len(calls) == 1:
                raise RuntimeError("batch machinery broke")
            return compile_jobs(jobs)

        monkeypatch.setattr(server.server, "_compile", broken_once)
        with ServeClient(
            socket_path, timeout=10.0, retry=RetryPolicy(max_attempts=1)
        ) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(SB, opt="O0")
            assert excinfo.value.code == "internal"
            assert excinfo.value.message == "batch machinery broke"
            assert client.compile(SB, opt="O0")["cached"] is False


class TestDedup:
    def test_concurrent_identical_requests_compile_once(
        self, socket_path, isolated_cache_dir
    ):
        """N concurrent identical compiles -> exactly one compile."""
        clients = 8
        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        thread.start()
        try:
            barrier = threading.Barrier(clients)
            results = [None] * clients

            def run(index):
                # A short timeout and no retry: an orphaned waiter
                # fails the test in seconds instead of hanging it.
                with ServeClient(
                    socket_path, timeout=10.0,
                    retry=RetryPolicy(max_attempts=1),
                ) as client:
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
            assert counters.get("compile.jobs", 0) == 1
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
        )
        first = ServerThread(Server(config))
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
        second = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        second.start()  # must reclaim the stale socket
        try:
            with ServeClient(socket_path) as client:
                warm = client.compile(SB, opt="O3")
            assert warm["cached"] is True
            assert warm["artifact_sha256"] == cold["artifact_sha256"]
            counters = second.server.profiler.counters
            assert counters.get("compile.jobs", 0) == 0
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
            return ServerThread(Server(ServeConfig(
                socket_path=str(tmp_path / name),
                cache_dir=isolated_cache_dir,
            ))).start()

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

        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        thread.start()
        with ServeClient(socket_path) as client:
            assert client.shutdown() == {"draining": True}
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()
        assert not os.path.exists(socket_path)

    def test_graceful_shutdown_writes_nothing_to_stderr(
        self, socket_path, isolated_cache_dir
    ):
        """``repro client shutdown`` on a daemon that served work: it
        exits 0 and logs nothing, though the connection that asked for
        the shutdown is still open when the drain ends, and an idle one
        stays open throughout (it sees EOF)."""
        import subprocess
        import sys
        import time

        command = [sys.executable, "-m", "repro"]
        env = dict(os.environ, PYTHONPATH=os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")))
        daemon = subprocess.Popen(
            command + ["serve", "--socket", socket_path, "--cache-dir",
                       isolated_cache_dir],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            for _ in range(400):
                if os.path.exists(socket_path) or daemon.poll() is not None:
                    break
                time.sleep(0.05)
            with ServeClient(socket_path) as client, \
                    socket.socket(socket.AF_UNIX) as idle:
                assert client.ping()["pong"] is True
                assert client.compile(SB)["cached"] is False
                client.simulate(SB, procs=2)
                idle.connect(socket_path)
                subprocess.run(command + ["client", "shutdown", "--socket",
                                          socket_path], env=env, check=True,
                               stdout=subprocess.DEVNULL, timeout=60)
                _out, stderr = daemon.communicate(timeout=60)
                assert idle.recv(1) == b""
        finally:
            daemon.kill()
            daemon.wait()
        assert (stderr.decode(), daemon.returncode) == ("", 0)

    def test_work_after_shutdown_is_rejected(
        self, socket_path, isolated_cache_dir
    ):
        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
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
        self, socket_path, isolated_cache_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
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
        self, socket_path, isolated_cache_dir, monkeypatch
    ):
        """Excess work is shed with a typed error + retry hint, not
        queued without bound."""
        monkeypatch.setattr("repro.serve.daemon.MAX_PENDING", 2)
        thread = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        thread.start()
        try:
            # Pipeline one slow compile (occupies the batch worker)
            # plus many distinct fast ones over a raw connection; once
            # two are pending, the rest must be refused.
            sources = [APP] + [SB + "\n" * i for i in range(1, 11)]
            responses = pipelined(socket_path, [
                {"op": "compile", "source": source, "opt": "O0"}
                for source in sources
            ])
            outcomes = {
                index: "ok" if response["ok"] else response["error"]
                for index, response in responses.items()
            }
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
        crashed = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        crashed.start()
        crashed.kill()
        assert os.path.exists(socket_path)

        contenders = [
            ServerThread(Server(ServeConfig(
                socket_path=socket_path,
                cache_dir=isolated_cache_dir,
            )))
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
        second = ServerThread(Server(ServeConfig(
            socket_path=socket_path,
            cache_dir=isolated_cache_dir,
        )))
        with pytest.raises(OSError, match="live daemon"):
            second.start()
        # The incumbent is untouched.
        with ServeClient(socket_path) as client:
            assert client.ping()["pong"] is True


class TestCliFailurePaths:
    """``repro serve`` / ``repro client`` fail loudly: exit 2, one
    ``repro: error:`` line, never a traceback."""

    def test_client_without_daemon_is_transport_with_hint(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main([
            "client", "ping", "--socket", str(tmp_path / "absent.sock"),
            "--retries", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "[transport]" in err
        assert "repro: hint: no answer after 1 attempt(s)" in err

    def test_client_rejects_zero_retries(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "client", "ping", "--socket", str(tmp_path / "absent.sock"),
            "--retries", "0",
        ])
        assert code == 2
        assert "repro: error: max_attempts" in capsys.readouterr().err

    def test_serve_rejects_malformed_store_budget(
        self, socket_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "10k")
        assert main(["serve", "--socket", socket_path]) == 2
        err = capsys.readouterr().err
        assert "repro: error: $REPRO_CACHE_MAX_ENTRIES" in err

    def test_error_exit_names_an_exception_without_message(self, capsys):
        from repro.cli import _runtime_error_exit

        assert _runtime_error_exit(AssertionError(), verbose=False) == 2
        assert capsys.readouterr().err == "repro: error: AssertionError\n"
