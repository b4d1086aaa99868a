#!/usr/bin/env python3
"""The logirec benchmark: one command, two workloads.

    python3 perfbench/run.py --workload serve_closed_ivf --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout. It builds the repository's libraries,
logirec_serve and perfbench_harness with CMake (into $CARGO_TARGET_DIR,
default .bench_build), builds the serving fixture and the pipeline
reference once per build, runs the workload, checks every output against
an in-process oracle, prints each metric as `name value unit`, and
prints one JSON object as its last line. --trace 0 reports the
end-to-end metrics; --trace 1 makes the separate traced run and reports
the per-layer ones.
Exits non-zero, without a result, on a build failure or a wrong output.
See perfbench/README.md.
"""

import argparse
import functools
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
HARNESS = os.path.join(BUILD, "perfbench_harness")
SERVE = os.path.join(BUILD, "logirec", "tools", "logirec_serve")
FIXTURES = os.path.join(BUILD, "fixtures-v1")
FIXTURE = os.path.join(FIXTURES, "ivf")
SNAPSHOT = os.path.join(FIXTURE, "model.snap")
DATA = os.path.join(FIXTURE, "data")
K = 20
# serve_closed_ivf: what logirec_serve, the traced host and the oracle
# serve. The load (2 connections, 8 in flight each) is in harness/common.h;
# after set-up, server and load generator share one CPU (load_cpu).
SERVER_THREADS = 2
RETRIEVAL = ["--retrieval=ivf", "--precision=f32"]
SETUP_REPS = 7
SWAP_REPS = 15
SWAP_SECONDS = 2.0
WARMUP_S = 1.0
WORKLOADS = ["serve_closed_ivf", "pipeline_warm"]

END_TO_END = {
    "setup_s": "s", "p50_ms": "ms", "rank_qps": "req/s",
    "cpu_us_per_req": "us", "ok_frac": "ratio", "recall_at_10": "ratio",
    "ndcg_at_20": "ratio", "freshness_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serve.net.residual_ms": "ms", "serve.session_ms.p50": "ms",
    "serve.server.submit_ms.p50": "ms", "serve.server.batch_mean": "count",
    "serve.server.queue_max": "count", "serve.server.shed": "count",
    "serve.servable.rank_us.p50": "us", "eval.exact_rank_us.p50": "us",
    "retrieval.candidates_per_query": "count", "retrieval.useful_frac": "ratio",
    "data.load_s": "s", "core.snapshot.load_s": "s", "retrieval.build_s": "s",
    "serve.servable.build_s": "s", "pipeline.ingest_s": "s",
    "pipeline.train_s": "s", "core.trainer.us_per_pair.first": "us",
    "core.trainer.us_per_pair.last": "us", "core.trainer.logic_s": "s",
    "core.trainer.mining_s": "s", "core.snapshot.write_s": "s",
    "core.snapshot.bytes": "bytes", "serve.server.publish_wait_s": "s",
    "pipeline.eval_s": "s", "pipeline.residual_s": "s",
    "pipeline.fit_full_s": "s", "serve.server.submit_ms.p50.swap": "ms",
    "serve.server.submit_ms.p50.steady": "ms", "client.p99_ms": "ms",
    "client.p99_beyond": "count", "client.p999_ms": "ms",
    "client.p999_beyond": "count", "client.tail_ms": "ms",
    "client.tail_pct": "%", "trace.residual_ms": "ms",
    "trace.overhead_ms": "ms", "host.steal_frac": "ratio",
    "host.probe_ms": "ms", "loadgen.late_ms_max": "ms",
}


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build --

def build():
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "build.log")
    with open(out, "a") as f:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=f, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed, see " + out)
        rc = subprocess.call(["cmake", "--build", BUILD, "-j4", "--target",
                              "logirec_serve_cli", "perfbench_harness"],
                             stdout=f, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError("build failed, see " + out)
    fixtures()


@functools.lru_cache(maxsize=None)
def pipeline_reference():
    """The cached PipelineDriver::Run NDCG, named after a hash of the
    harness binary, so any rebuild computes it again."""
    digest = hashlib.sha256()
    with open(HARNESS, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return os.path.join(FIXTURES, f"pipeline_reference-{digest.hexdigest()[:16]}.txt")


def fixtures():
    """Builds the serving fixture (once per build directory) and the
    pipeline reference (once per harness binary) in parallel, so no later
    run pays for them. Neither depends on the run seed."""
    os.makedirs(FIXTURES, exist_ok=True)
    procs = []
    if not os.path.exists(os.path.join(FIXTURE, "DONE")):
        log("building the serving fixture (once per build directory)")
        procs.append(("ivf", subprocess.Popen(
            [HARNESS, "fixture", f"--dir={FIXTURE}"], stdout=subprocess.DEVNULL)))
    if not os.path.exists(pipeline_reference()):
        log("computing the pipeline reference (once per build)")
        procs.append(("pipeline", subprocess.Popen(
            pipeline_argv(os.path.join(FIXTURES, "work")) + ["--reference-only"])))
    for kind, p in procs:
        if p.wait() != 0:
            raise BenchError(f"fixture {kind} failed")
        if kind == "ivf":
            open(os.path.join(FIXTURE, "DONE"), "w").close()


def selftests():
    scratch = os.path.join(BUILD, "runs")
    os.makedirs(scratch, exist_ok=True)
    if subprocess.call([HARNESS, "selftest", f"--scratch={scratch}"],
                       stdout=subprocess.DEVNULL) != 0:
        raise BenchError("harness self-test failed")
    import tempfile
    import unittest
    import test_benchlib
    tempfile.tempdir = scratch  # the tests' temporary files stay in the checkout
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_benchlib)
    result = unittest.TextTestRunner(stream=open(os.devnull, "w")).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            log(trace)
        raise BenchError("benchlib self-test failed")


# ---------------------------------------------------------------- host --

def host_probe_ms():
    """A fixed calibration loop; reported only, never used to rescale."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(100000):
            x += i * i
        times.append(1e3 * (time.perf_counter() - t))
    return benchlib.median(times)


# ------------------------------------------------------------ children --

class Line:
    """A child process driven over stdin/stdout lines."""

    def __init__(self, argv, stderr=None):
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=stderr,
                                  text=True, bufsize=1)

    def ask(self, command):
        self.p.stdin.write(command + "\n")
        self.p.stdin.flush()
        return self.read()

    def read(self):
        line = self.p.stdout.readline()
        if not line:
            raise BenchError(f"{self.p.args[1]} ended unexpectedly")
        return line.rstrip("\n")

    def close(self):
        if self.p.poll() is None:
            try:
                self.p.stdin.write("quit\n")
                self.p.stdin.flush()
                self.p.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.p.kill()
                self.p.wait()


def wait_listening(p):
    while True:
        line = p.stderr.readline()
        if not line:
            raise BenchError("server exited before listening")
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            return int(m.group(1))


def stop(p):
    if p.poll() is None:
        p.terminate()
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


class Client:
    def __init__(self, port):
        self.s = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def ask(self, line):
        self.s.sendall((line + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode()

    def close(self):
        self.s.close()


def load_cpu():
    """The one CPU that server and load generator share once set-up is
    done: the highest this process may use, as for the pipeline. Under
    the closed loop it never idles, so no handoff between client, event
    loop and workers waits for an idle vCPU to wake, and rank_qps follows
    the CPU time a request costs (see README)."""
    return {max(os.sched_getaffinity(0))}


def move_to_load_cpu(pid):
    """Moves every thread of the running server `pid` onto load_cpu();
    threads it starts later inherit their creator's CPU. Set-up stays on
    every CPU."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), load_cpu())
        except ProcessLookupError:
            pass  # the thread has ended


def run_loadgen(port, seed, seconds, users, out):
    argv = [HARNESS, "loadgen", f"--port={port}", f"--warmup={WARMUP_S}",
            f"--seconds={seconds}", f"--seed={seed}", f"--users={users}",
            f"--k={K}", f"--out={out}"]
    if subprocess.call(argv, timeout=seconds + WARMUP_S + 30,
                       preexec_fn=lambda: os.sched_setaffinity(0, load_cpu())) != 0:
        raise BenchError("load generator failed")
    return benchlib.parse_records(out)


def client_stats(header, rows, seconds):
    """Client view of the measured window: latency (ms, send to reply) of
    every ok reply sent in it, attempted and ok counts, and per-second
    segment figures."""
    lo, hi = header["from"], header["to"]
    nseg = max(1, int(round(seconds)))
    seg_ns = (hi - lo) / nseg
    seg_latency = [[] for _ in range(nseg)]
    seg_done = [0] * nseg
    latency, attempted, ok = [], 0, 0
    for conn, user, sent, done, status in rows:
        if lo <= sent < hi:
            attempted += 1
            if status == 0:
                ok += 1
                ms = 1e-6 * (done - sent)
                latency.append(ms)
                seg_latency[min(nseg - 1, int((sent - lo) / seg_ns))].append(ms)
        if status == 0 and lo <= done < hi:
            seg_done[min(nseg - 1, int((done - lo) / seg_ns))] += 1
    if not latency or min(len(v) for v in seg_latency) < 100:
        raise BenchError("too few replies in the measured window")
    segments = {
        "p50_ms": benchlib.median([benchlib.percentile(v, 0.5) for v in seg_latency]),
        "rank_qps": benchlib.median(seg_done) * nseg / seconds,
    }
    return latency, attempted, ok, segments


def start_oracle():
    oracle = Line([HARNESS, "oracle", f"--data={DATA}", f"--snapshot={SNAPSHOT}"]
                  + RETRIEVAL)
    ready = oracle.read().split()
    if ready[0] != "ready":
        raise BenchError("oracle failed to start")
    return oracle, int(ready[1])


def check_records(oracle, path):
    result = json.loads(oracle.ask("check " + path))
    if result["checked"] < 1:
        raise BenchError("oracle checked no reply")
    return result


def tail_metrics(latency):
    t = benchlib.tail(latency)
    p99 = benchlib.percentile(latency, 0.99)
    p999 = benchlib.percentile(latency, 0.999)
    return {
        "client.p99_ms": p99, "client.p99_beyond": benchlib.beyond(latency, p99),
        "client.p999_ms": p999, "client.p999_beyond": benchlib.beyond(latency, p999),
        "client.tail_ms": t[1] if t else p99,
        "client.tail_pct": 100.0 * t[0] if t else 99.0,
    }


# ------------------------------------------------------------- serving --

def serve_workload(seed, seconds, work):
    argv = [SERVE, f"--snapshot={SNAPSHOT}", f"--data={DATA}", "--port=0",
            f"--threads={SERVER_THREADS}"] + RETRIEVAL
    oracle, users = start_oracle()
    server = None
    try:
        probe = seed % users
        want = f"ok user={probe} gen=1 items=" + oracle.ask(f"expect {probe} {K}").split(" ", 1)[1]
        correct = True
        # Set-up: launch to first correct reply, several times; the last
        # server stays up for the timed phase.
        setup = []
        for rep in range(SETUP_REPS):
            if server is not None:
                stop(server)
            t0 = time.perf_counter()
            server = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
            port = wait_listening(server)
            c = Client(port)
            reply = c.ask(f"{probe} {K}")
            setup.append(time.perf_counter() - t0)
            c.close()
            if reply != want:
                log(f"wrong first reply: {reply!r} != {want!r}")
                correct = False

        move_to_load_cpu(server.pid)
        cpu0 = benchlib.read_cpu_seconds(server.pid)
        records = os.path.join(work, "records.txt")
        header, rows = run_loadgen(port, seed, seconds, users, records)
        cpu1 = benchlib.read_cpu_seconds(server.pid)
        # Peak RSS of set-up and load, read before the reloads: while a
        # reload builds, old and new generations overlap for a moment that
        # depends on timing, and a peak taken after them varied by 11%.
        rss = benchlib.read_vmhwm_mb(server.pid)
        latency, attempted, ok, seg = client_stats(header, rows, seconds)
        all_ok = sum(1 for r in rows if r[4] == 0)

        # Freshness: a new snapshot arrives (!reload) until it answers;
        # at least SWAP_REPS reloads and SWAP_SECONDS of them.
        fresh = []
        c = Client(port)
        gen = 1
        reload_end = time.perf_counter() + SWAP_SECONDS
        while len(fresh) < SWAP_REPS or time.perf_counter() < reload_end:
            gen += 1
            t0 = time.perf_counter()
            reply = c.ask(f"!reload {SNAPSHOT}")
            fresh.append(time.perf_counter() - t0)
            answer = c.ask(f"{probe} {K}")
            if not reply.startswith(f"ok reloaded gen={gen} ") or \
                    answer != want.replace("gen=1", f"gen={gen}", 1):
                log(f"wrong reload: {reply!r} / {answer!r}")
                correct = False
        c.close()
        stop(server)
        server = None
        check = check_records(oracle, records)
    finally:
        if server is not None:
            stop(server)
        oracle.close()
    mismatch = int(check["mismatch"])
    correct = correct and mismatch == 0
    failed = attempted - ok + mismatch
    metrics = {
        "setup_s": benchlib.median(setup),
        "p50_ms": seg["p50_ms"],
        "rank_qps": seg["rank_qps"],
        "cpu_us_per_req": 1e6 * (cpu1 - cpu0) / max(all_ok, 1),
        "ok_frac": (ok - mismatch) / attempted,
        "recall_at_10": check["recall_at_10"],
        "ndcg_at_20": check["ndcg_at_20"],
        "freshness_s": benchlib.median(fresh),
        "peak_rss_mb": rss,
    }
    return correct, attempted, failed, metrics, {"samples": len(latency)}


def outside_session_ms(header, rows, spans):
    """Per measured request: client latency minus its child session span,
    i.e. the time no server-side span covers (wire, kernel, event loop,
    client). A client request is the parent of the session span with the
    same connection (in accept order) and sequence number."""
    session = {}
    base = min(spans["conn"])
    for conn, seq, ms in zip(spans["conn"], spans["seq"], spans["session_ms"]):
        session[(int(conn - base), int(seq))] = ms
    outside, seq = [], {}
    for conn, user, sent, done, status in rows:
        n = seq.get(conn, 0)
        seq[conn] = n + 1
        if status == 0 and header["from"] <= sent < header["to"]:
            child = session.get((conn, n))
            if child is None:
                raise BenchError("a request has no session span")
            outside.append(1e-6 * (done - sent) - child)
    return outside


def serve_traced(seed, seconds, work):
    """The traced run: the in-process host, the same closed loop over TCP
    untraced then traced, then in-process TrySubmit and single-thread
    ranking."""
    phase = max(seconds / 2.0, 1.0)
    oracle, users = start_oracle()
    host = Line([HARNESS, "serve-host", f"--data={DATA}", f"--snapshot={SNAPSHOT}",
                 f"--threads={SERVER_THREADS}"] + RETRIEVAL, stderr=subprocess.PIPE)
    try:
        setup = json.loads(host.read().split(" ", 1)[1])
        port = wait_listening(host.p)
        move_to_load_cpu(host.p.pid)
        host.ask("trace off")
        header_plain, plain = run_loadgen(port, seed, phase, users,
                                          os.path.join(work, "plain.txt"))
        host.ask("trace on")
        traced_path = os.path.join(work, "traced.txt")
        header, rows = run_loadgen(port, seed, phase, users, traced_path)
        spans = json.loads(host.ask("spans"))
        inproc = json.loads(host.ask(f"inproc {seed} {WARMUP_S} {phase} {users} {K}"))
        rank = json.loads(host.ask(f"rank {seed} 2000 {K}"))
        check = check_records(oracle, traced_path)
    finally:
        host.close()
        oracle.close()
    lat_plain = client_stats(header_plain, plain, phase)[0]
    latency, attempted, ok, _ = client_stats(header, rows, phase)
    p50 = benchlib.percentile(latency, 0.5)
    p50_plain = benchlib.percentile(lat_plain, 0.5)
    submit_p50 = benchlib.percentile(inproc["submit_ms"], 0.5)
    session_p50 = benchlib.percentile(spans["session_ms"], 0.5)
    outside = outside_session_ms(header, rows, spans)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "serve.net.residual_ms": p50_plain - submit_p50,
        "serve.session_ms.p50": session_p50,
        "serve.server.submit_ms.p50": submit_p50,
        "serve.server.batch_mean": spans["completed"] / max(spans["batches"], 1),
        "serve.server.queue_max": spans["queue_max"],
        "serve.server.shed": spans["shed"],
        "serve.servable.rank_us.p50": rank["serve.servable.rank_us.p50"],
        "eval.exact_rank_us.p50": rank["eval.exact_rank_us.p50"],
        "retrieval.candidates_per_query": rank["retrieval.candidates_per_query"],
        "retrieval.useful_frac": rank["retrieval.useful_frac"],
        "data.load_s": setup["data.load_s"],
        "core.snapshot.load_s": setup["core.snapshot.load_s"],
        "retrieval.build_s": setup["retrieval.build_s"],
        "serve.servable.build_s": setup["serve.servable.build_s"],
        "trace.residual_ms": benchlib.percentile(outside, 0.5),
        "trace.overhead_ms": p50 - p50_plain,
    })
    metrics.update(tail_metrics(latency))
    mismatch = int(check["mismatch"]) + int(rank["mismatch"])
    correct = mismatch == 0 and inproc["failed"] == 0
    return correct, attempted, attempted - ok + mismatch, metrics, {}


# ------------------------------------------------------------ pipeline --

def pipeline_argv(work):
    return [HARNESS, "pipeline", f"--reference={pipeline_reference()}",
            f"--dir={work}/pipeline"]


def pipeline_run(seed, trace, work):
    argv = pipeline_argv(work) + [f"--seed={seed}", f"--trace={trace}"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=150)
    if out.returncode != 0:
        raise BenchError("pipeline harness failed")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    correct = (r["identical_across_reps"] == 1 and r["matches_reference"] == 1
               and r["mismatch"] == 0)
    if not correct:
        log(f"pipeline check failed: identical={r['identical_across_reps']} "
            f"reference={r['matches_reference']} mismatch={r['mismatch']}")
    attempted = int(r["attempted"])
    failed = attempted - int(r["ok"])
    return r, correct, attempted, failed


def pipeline_workload(seed, seconds, work):
    r, correct, attempted, failed = pipeline_run(seed, 0, work)
    # Medians over every window (p50) and every batch (drain rate) of
    # every replay, so a host episode of a few seconds does not move them.
    metrics = {
        "setup_s": benchlib.median(r["setup_s"]),
        "p50_ms": benchlib.median(r["window_p50_ms"]),
        "rank_qps": benchlib.median(r["batch_qps"]),
        "cpu_us_per_req": benchlib.median(r["cpu_us_per_req"]),
        "ok_frac": r["ok"] / attempted,
        "recall_at_10": r["recall_at_10"],
        "ndcg_at_20": r["ndcg_at_20"],
        "freshness_s": r["freshness_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    diag = {"loadgen.late_ms_max": r["late_max_ms"], "samples": len(r["latency_ms"])}
    return correct, attempted, failed, metrics, diag


def pipeline_traced(seed, seconds, work):
    r, correct, attempted, failed = pipeline_run(seed, 1, work)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for key in ("pipeline.ingest_s", "pipeline.train_s",
                "core.trainer.us_per_pair.first", "core.trainer.us_per_pair.last",
                "core.trainer.logic_s", "core.trainer.mining_s",
                "core.snapshot.write_s", "core.snapshot.bytes",
                "serve.servable.build_s", "serve.server.publish_wait_s",
                "pipeline.eval_s", "pipeline.residual_s", "pipeline.fit_full_s"):
        metrics[key] = r[key]
    latency = r["latency_ms"]
    metrics.update({
        "serve.server.submit_ms.p50": benchlib.percentile(latency, 0.5),
        "serve.server.submit_ms.p50.swap": benchlib.percentile(r["submit_ms_in_swap"], 0.5)
        if r["submit_ms_in_swap"] else 0.0,
        "serve.server.submit_ms.p50.steady": benchlib.percentile(r["submit_ms_out_swap"], 0.5),
        "serve.server.batch_mean": r["completed"] / max(r["batches"], 1),
        "serve.server.queue_max": r["queue_max"],
        "serve.server.shed": r["server_shed"],
        "trace.residual_ms": 1e3 * r["pipeline.residual_s"],
        "trace.overhead_ms": 1e3 * r["trace.overhead_s"],
        "loadgen.late_ms_max": r["late_max_ms"],
    })
    metrics.update(tail_metrics(latency))
    return correct, attempted, failed, metrics, {}


# ---------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = max(args.seed, 0) + 1  # the schedule seed; 0 is reserved

    def on_alarm(signum, frame):
        raise BenchError("the run took too long")

    def on_term(signum, frame):
        raise BenchError("terminated")

    # Turn SIGTERM into an exception so the cleanup below stops children.
    signal.signal(signal.SIGTERM, on_term)
    try:
        build()
        # After the (possibly long) first build, a run must end in time.
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(170)
        selftests()
        work = os.path.join(BUILD, "runs", f"{args.workload}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        steal0 = benchlib.read_cpu_times()
        probe = host_probe_ms()
        if args.workload == "pipeline_warm":
            run = pipeline_traced if args.trace else pipeline_workload
            correct, attempted, failed, metrics, diag = run(seed, args.seconds, work)
        else:
            run = serve_traced if args.trace else serve_workload
            correct, attempted, failed, metrics, diag = run(seed, args.seconds, work)
        steal = benchlib.steal_frac(steal0, benchlib.read_cpu_times())
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        signal.alarm(0)

    diag.update({"host.steal_frac": steal, "host.probe_ms": probe,
                 "host.cores": os.cpu_count()})
    if args.trace:
        metrics["host.steal_frac"] = steal
        metrics["host.probe_ms"] = probe
    units = PER_LAYER if args.trace else END_TO_END
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    for key, value in diag.items():
        print(f"# {key} {value:.6g}")
    if not correct:
        log("perfbench: a correctness check failed")
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
