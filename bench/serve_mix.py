"""``serve_mix``: a ``repro serve`` daemon under a closed-loop request mix.

The daemon is a subprocess with its own interpreter (the legacy bench
ran it on a thread of the generator, sharing its GIL) and a fresh store.
Two connections each wait for a reply before sending the next request,
because the daemon's callers are build tools that wait for theirs: a
slower daemon receives less load.  Nine requests in ten are for
artifacts the store already holds, one in ten is for a program nobody
has sent before, so store reads sit beside compile-and-store writes and
a gain for one that costs the other shows in p50 against p99.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import OptLevel, analyze_source, compile_source
from repro.analysis.delays import AnalysisLevel
from repro.runtime import CM5
from repro.serve import ArtifactCache, RetryPolicy, ServeClient, ServeError
from repro.serve import protocol

from bench import SRC, corpus
from bench.harness import Sample, Workload, percentile
from bench.trace import Tracer

CONNECTIONS = 2
#: compile : analyze : simulate
OP_WEIGHTS = (("compile", 8), ("analyze", 1), ("simulate", 1))
FRESH_SHARE = 0.10
#: Fresh replies of each op that are recomputed in-process and compared.
FRESH_CHECKED = 12

@dataclass(frozen=True)
class Request:
    op: str
    program: corpus.Program
    level: str          # opt level, or the analysis level for "analyze"
    fresh: bool = False

    @property
    def key(self) -> str:
        return f"{self.op}/{self.program.name}/{self.level}"

    def params(self) -> Dict[str, object]:
        if self.op == "compile":
            return {"source": self.program.source, "opt": self.level}
        if self.op == "analyze":
            return {"source": self.program.source, "level": self.level}
        return {"source": self.program.source, "opt": self.level,
                "procs": self.program.procs, "machine": "cm5"}


@dataclass
class Reply:
    request: Request
    seconds: float
    #: None when the request failed, was refused or timed out
    result: Optional[dict]
    error: str = ""

    @property
    def cached(self) -> bool:
        return bool(self.result and self.result.get("cached"))


@dataclass
class Daemon:
    process: subprocess.Popen
    directory: str
    clients: List[ServeClient] = field(default_factory=list)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon has no VmHWM")

    def stop(self) -> None:
        """Shuts the daemon down, or kills it; removes socket and store."""
        try:
            if self.process.poll() is None and self.clients:
                try:
                    self.clients[0].shutdown()
                except ServeError:
                    pass
            for client in self.clients:
                client.close()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


def start_daemon(scratch: str) -> Daemon:
    directory = tempfile.mkdtemp(prefix="daemon-", dir=scratch)
    # Relative, because a unix socket path is limited to ~100 bytes and
    # the checkout may sit deep; the daemon inherits this directory.
    socket_path = os.path.relpath(os.path.join(directory, "d.sock"))
    log = open(os.path.join(directory, "daemon.log"), "wb")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path,
             "--cache-dir", os.path.join(directory, "store"),
             "--jobs", "0"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
    finally:
        log.close()
    daemon = Daemon(process, directory)
    try:
        deadline = time.monotonic() + 30.0
        while len(daemon.clients) < CONNECTIONS:
            # No retries: a refused request must count as failed.
            client = ServeClient(socket_path, timeout=60.0,
                                 retry=RetryPolicy(max_attempts=1))
            try:
                client.connect()
            except ServeError:
                # Not bound yet, or bound and not yet listening.
                if process.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited with {process.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "repro serve did not come up in 30 s")
                time.sleep(0.005)
                continue
            daemon.clients.append(client)
        daemon.clients[0].ping()
    except BaseException:
        daemon.stop()
        raise
    return daemon


class ServeMix(Workload):
    name = "serve_mix"
    why = ("a repro serve subprocess under 2 closed-loop connections, 90% "
           "store hits and 10% never-seen programs, compile:analyze:"
           "simulate 8:1:1: serve does most of the work, reads beside "
           "writes")
    unit = "replies"
    #: every pass sends other requests
    ops_repeat = False

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.per_pass = 40 if smoke else 300
        # The whole pool is stored, whatever the seed, so that reply size
        # and hit time do not depend on the draw; the seed picks the order
        # of requests and the never-seen programs.
        programs = corpus.app_programs(8) + [
            corpus.progen_program(index)
            for index in range(3 if smoke else corpus.PROGEN_POOL)]
        self.hot: Dict[str, List[Request]] = {
            "compile": [
                Request("compile", program, level)
                for program in programs
                for level in (("O0", "O1", "O3") if program.group == "apps"
                              else ("O1", "O3"))
            ],
            "analyze": [Request("analyze", program, "sync")
                        for program in programs],
            "simulate": [Request("simulate", program, "O3")
                         for program in programs],
        }
        self.daemon: Optional[Daemon] = None
        self.primed: Dict[str, dict] = {}
        self.replies: List[Reply] = []
        #: (daemon cpu seconds, wall clock) when the first pass began
        self.began = (0.0, 0.0)
        self.ended = (0.0, 0.0)
        #: the daemon's counters when the first pass began (priming over)
        self.stats_began: Dict[str, int] = {}

    def sizes(self) -> Dict[str, object]:
        return {
            "connections": CONNECTIONS,
            "requests_per_pass": self.per_pass,
            "hot_artifacts": sum(len(v) for v in self.hot.values()),
            "fresh_share": FRESH_SHARE,
            "requests_digest": corpus.digest(
                [request.program for request in self._plan(0)]),
        }

    def setup(self) -> None:
        self.close()
        self.daemon = start_daemon(self.scratch)
        client = self.daemon.clients[0]
        self.primed = {
            request.key: client.request(request.op, **request.params())
            for requests in self.hot.values() for request in requests
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def _plan(self, index: int) -> List[Request]:
        """The requests of pass ``index``: same seed, same requests."""
        rng = random.Random(self.seed * 100_003 + index)
        ops = [op for op, _weight in OP_WEIGHTS]
        weights = [weight for _op, weight in OP_WEIGHTS]
        first_fresh = corpus.FRESH_BASE + (
            (self.seed * 1000 + index) * self.per_pass)
        plan = []
        for position in range(self.per_pass):
            op = rng.choices(ops, weights)[0]
            if rng.random() < FRESH_SHARE:
                program = corpus.progen_program(first_fresh + position)
                level = "sync" if op == "analyze" else "O3"
                plan.append(Request(op, program, level, fresh=True))
            else:
                plan.append(rng.choice(self.hot[op]))
        return plan

    def run_pass(self, tracer, index: int) -> List[Sample]:
        plan = self._plan(index)
        if index == 0:
            self.stats_began = self.daemon.clients[0].stats()
            self.began = (self.daemon.cpu_seconds(), time.perf_counter())
        shares = [plan[conn::CONNECTIONS] for conn in range(CONNECTIONS)]
        replies: List[List[Reply]] = [[] for _ in shares]
        errors: List[BaseException] = []

        def drive(conn: int) -> None:
            try:
                client = self.daemon.clients[conn]
                for request in shares[conn]:
                    replies[conn].append(
                        self._send(tracer, client, request))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        # Connection 0 runs on this thread, under the pass's span.
        others = [threading.Thread(target=drive, args=(conn,))
                  for conn in range(1, CONNECTIONS)]
        for thread in others:
            thread.start()
        drive(0)
        for thread in others:
            thread.join()
        if errors:
            raise errors[0]
        self.ended = (self.daemon.cpu_seconds(), time.perf_counter())
        done = [reply for per_conn in replies for reply in per_conn]
        self.replies.extend(done)
        return [Sample(reply.request.op, reply.seconds, 1.0)
                for reply in done]

    @staticmethod
    def _send(tracer, client: ServeClient, request: Request) -> Reply:
        start = time.perf_counter()
        try:
            with tracer.span("serve.request", request.key):
                result = client.request(request.op, **request.params())
        except ServeError as exc:
            return Reply(request, time.perf_counter() - start, None,
                         exc.code)
        seconds = time.perf_counter() - start
        if not request.fresh:
            # Its digest is compared with the priming reply's; 2000 of
            # these bodies would be 100 MB held for nothing.
            result.pop("artifact", None)
        return Reply(request, seconds, result)

    # -- output checks -----------------------------------------------------

    def verify(self) -> int:
        """Replies that failed, were refused, or are wrong.

        Every reply to a stored artifact must equal the reply that
        primed the store, and that reply must equal what this process
        computes itself.  Of the never-seen programs, a seeded sample
        per op is recomputed here.  Pickled artifacts differ in bytes
        from one compile to the next, so compile replies are compared
        on the generated IR text, after the digest check.
        """
        wrong_keys = {
            request.key
            for requests in self.hot.values() for request in requests
            if not self._matches(request, self.primed[request.key])
        }
        rng = random.Random(self.seed)
        fresh: Dict[str, List[Reply]] = {}
        for reply in self.replies:
            if reply.request.fresh and reply.result is not None:
                fresh.setdefault(reply.request.op, []).append(reply)
        checked = {
            id(reply)
            for replies in fresh.values()
            for reply in rng.sample(replies,
                                    min(FRESH_CHECKED, len(replies)))
        }
        failed = 0
        for reply in self.replies:
            request = reply.request
            if reply.result is None:
                failed += 1
            elif request.fresh:
                if id(reply) in checked and not self._matches(
                        request, reply.result):
                    failed += 1
            elif (request.key in wrong_keys
                  or _essence(reply.result)
                  != _essence(self.primed[request.key])):
                failed += 1
        return failed

    @staticmethod
    def _matches(request: Request, result: dict) -> bool:
        """Does a reply equal this process's own cold computation?"""
        source = request.program.source
        if request.op == "analyze":
            own = analyze_source(source, AnalysisLevel.SYNC)
            return len(result["delay_edges"]) == len(own.delay_edges())
        program = compile_source(source, OptLevel(request.level))
        if request.op == "simulate":
            own = program.run(request.program.procs, CM5, seed=0)
            return (result["cycles"] == own.cycles
                    and result["instructions"] == own.instructions)
        blob = base64.b64decode(result["artifact"])
        if hashlib.sha256(blob).hexdigest() != result["artifact_sha256"]:
            return False
        # The daemon is this run's own subprocess: its pickles are ours.
        return pickle.loads(blob).pretty() == program.pretty()

    # -- traced run --------------------------------------------------------

    def layers(self, tracer: Tracer, samples: Sequence[Sample]
               ) -> Dict[str, float]:
        answered = [r for r in self.replies if r.result is not None]

        def rtt_ms(replies: List[Reply]) -> float:
            return (percentile([r.seconds for r in replies], 0.5) * 1e3
                    if replies else 0.0)

        compiles = [r for r in answered if r.request.op == "compile"]
        stats = self.daemon.clients[0].stats()
        cpu = self.ended[0] - self.began[0]
        values = {
            "serve.hit_rtt_ms": rtt_ms([r for r in compiles if r.cached]),
            "serve.miss_rtt_ms": rtt_ms(
                [r for r in compiles if not r.cached]),
            "serve.analyze_rtt_ms": rtt_ms(
                [r for r in answered if r.request.op == "analyze"]),
            "serve.simulate_rtt_ms": rtt_ms(
                [r for r in answered if r.request.op == "simulate"]),
            "serve.hit_rate": (
                sum(1 for r in answered if r.cached) / len(self.replies)),
            **{f"serve.{name}": stats[name] - self.stats_began[name]
               for name in ("dedup_hits", "batches", "overloaded")},
            "serve.artifact_bytes": statistics.mean(
                r.result["artifact_bytes"] for r in compiles),
            "serve.daemon_cpu_s": cpu,
            # Base: wall seconds of the timed section; near 1 the daemon,
            # not the generator, is the limit.
            "serve.daemon_cpu_share": cpu / (self.ended[1] - self.began[1]),
        }
        values.update(self._substrate(tracer))
        return values

    def _substrate(self, tracer: Tracer) -> Dict[str, float]:
        """Store and wire costs on the blobs and replies just served."""
        store = ArtifactCache(os.path.join(self.scratch, "probe-store"))
        timings: Dict[str, List[float]] = {
            "store_put": [], "store_get": [], "encode": [], "decode": []}

        def timed(what: str, call, *args):
            start = time.perf_counter()
            with tracer.span(f"serve.{what}", "substrate"):
                value = call(*args)
            timings[what].append(time.perf_counter() - start)
            return value

        for request in self.hot["compile"]:
            result = self.primed[request.key]
            blob = base64.b64decode(result["artifact"])
            key = store.key("compile", source=request.program.source,
                            level=request.level)
            timed("store_put", store.put_bytes, key, blob)
            timed("store_get", store.get_bytes, key)
            line = timed("encode", protocol.encode,
                         protocol.ok_response(1, result))
            timed("decode", protocol.decode_line, line)
        return {f"serve.{what}_ms": statistics.median(seconds) * 1e3
                for what, seconds in timings.items()}


def _essence(result: dict) -> tuple:
    """What two replies for one stored artifact must agree on."""
    return (result.get("artifact_sha256"), result.get("cycles"),
            len(result.get("delay_edges", ())))
