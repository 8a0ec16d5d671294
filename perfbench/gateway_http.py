"""gateway-http: a closed loop over HTTP against a journaled gateway.

Why: driver work per request is milliseconds, so the time goes to the
serving stack (``gateway.*``, ``serve``, ``sessions``); this is the
workload that moves for serving-path work and stays put for driver work.

The gateway runs in this process: ``Gateway(workers=2, journal_dir=...)``
behind ``make_server``.  Two keep-alive connections, one tenant each,
send one request at a time (a closed loop with two clients).  Of every
five requests, four are ``POST /v1/jobs?wait=1`` drawn in turn from four
tiny sp/pta/engine/mst templates, and one is a ``POST
/v1/sessions/batch`` on an MST session (a stateful write through the
journal and the session checkpoint spool).  Each connection rotates to
a fresh session every eight batches so batch cost stays flat over a run.

A pass is a fixed batch of requests per connection; both connections
run it together and the pass ends when both are done.  Outside the
timer every job's digest is replayed inline with ``run_job`` and every
session batch with ``Session.apply_batch``; a refused request, an error
status or a digest mismatch each count as a failed operation.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from measure import (ROOT, Outcome, more_time, percentile, process_hwm_mb,
                     self_rss_mb)
from spans import (END, ID, NAME, REQ, START, Recorder, by_name, patched,
                   self_times)

SETUP_REPS = 3
CONNECTIONS = 2
PER_PASS = 20          # requests per connection per pass
SESSION_EVERY = 5      # every fifth request is a session batch
SESSION_ROTATE = 8     # batches per session before a fresh one opens
TRACE_PASSES = 8       # untraced and traced passes in a traced run

TEMPLATES = (
    ("sp", {"num_vars": 30, "k": 3, "ratio": 3.0}),
    ("pta", {"num_vars": 40, "num_constraints": 80}),
    ("engine", {"num_nodes": 60, "num_edges": 180}),
    ("mst", {"num_nodes": 48, "num_edges": 144}),
)
SESSION_OPS = ("add_edges", "reweight_edges", "drop_edges", "add_edges")
SESSION_PARAMS = {"num_nodes": 80, "num_edges": 240}


@dataclass
class Request:
    conn: int
    index: int
    kind: str                  # "job" | "session"
    path: str
    body: dict
    rtt_s: float = 0.0
    status: int = 0
    reply: dict = field(default_factory=dict)

    @property
    def rid(self) -> str:
        return f"{self.conn}-{self.index}"


def make_request(seed: int, conn: int, index: int) -> Request:
    """Request ``index`` of connection ``conn``: a pure function of the
    seed, so one seed always sends the same traffic."""
    tenant = f"t{conn}"
    if index % SESSION_EVERY == SESSION_EVERY - 1:
        batch = index // SESSION_EVERY
        session = {"name": f"s{conn}-{batch // SESSION_ROTATE}",
                   "algorithm": "mst", "params": SESSION_PARAMS,
                   "seed": seed}
        op = SESSION_OPS[batch % len(SESSION_OPS)]
        ops = [{"op": op, "count": 3, "seed": seed * 7919 + batch}]
        return Request(conn, index, "session", "/v1/sessions/batch",
                       {"tenant": tenant, "session": session, "ops": ops})
    job = index - index // SESSION_EVERY
    algo, params = TEMPLATES[job % len(TEMPLATES)]
    spec = {"name": f"{algo}-{conn}-{job}", "algorithm": algo,
            "params": params, "seed": seed * 7919 + job}
    return Request(conn, index, "job", "/v1/jobs?wait=1",
                   {"tenant": tenant, "job": spec})


class Client:
    """One keep-alive connection sending one request at a time."""

    def __init__(self, port: int, conn: int, seed: int) -> None:
        self.conn = conn
        self.seed = seed
        self.http = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)
        self.sent: list[Request] = []

    def send(self, req: Request) -> Request:
        body = json.dumps(req.body).encode()
        t0 = time.perf_counter()
        self.http.request("POST", req.path, body=body,
                          headers={"Content-Type": "application/json",
                                   "X-Bench-Request": req.rid})
        resp = self.http.getresponse()
        raw = resp.read()
        req.rtt_s = time.perf_counter() - t0
        req.status = resp.status
        req.reply = json.loads(raw) if raw else {}
        return req

    def run(self, count: int) -> None:
        start = len(self.sent)
        for index in range(start, start + count):
            self.sent.append(self.send(make_request(self.seed, self.conn,
                                                    index)))

    def close(self) -> None:
        self.http.close()


class Stack:
    """A started gateway and the HTTP server in front of it."""

    def __init__(self, base: str) -> None:
        from repro.gateway import (Gateway, GatewayConfig, TenantQuota,
                                   make_server, serve_in_thread)

        self.gateway = Gateway(GatewayConfig(
            workers=2, journal_dir=f"{base}/journal",
            checkpoint_dir=f"{base}/spool",
            tenants={f"t{c}": TenantQuota() for c in range(CONNECTIONS)}
        )).start()
        self.server = make_server(self.gateway)
        self.thread = serve_in_thread(self.server)
        self.port = self.server.server_address[1]

    def worker_pids(self) -> list[int]:
        return [w.process.pid for w in self.gateway.pool.workers.values()]

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        workers = list(self.gateway.pool.workers.values())
        self.gateway.stop()
        for w in workers:
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=10)


def warm(stack: Stack, seed: int) -> None:
    """One request of each template per tenant, so first-touch costs in
    the workers fall before timing starts."""
    for conn in range(CONNECTIONS):
        client = Client(stack.port, conn, seed)
        try:
            for t, (algo, params) in enumerate(TEMPLATES):
                job = {"name": f"warm-{algo}-{conn}", "algorithm": algo,
                       "params": params, "seed": seed}
                req = client.send(Request(conn, -1 - t, "job",
                                          "/v1/jobs?wait=1",
                                          {"tenant": f"t{conn}", "job": job}))
                if req.status != 200:
                    raise RuntimeError(f"warm-up {algo} request failed: "
                                       f"HTTP {req.status} {req.reply}")
        finally:
            client.close()


def trace_targets(rec: Recorder):
    from repro.gateway import (AdmissionController, Gateway, JobHandle,
                               Journal, WorkerPool)
    from repro.gateway.http import _Handler

    def send_note(span, args):
        msg = args[2]
        if span[REQ] is not None and "job_id" in msg:
            rec.job_req[msg["job_id"]] = span[REQ]

    return [(_Handler, "do_POST", "gateway.http.handler",
             lambda args: args[0].headers.get("X-Bench-Request")),
            (Gateway, "submit", "gateway.submit"),
            (Gateway, "session_batch", "gateway.session_batch"),
            (JobHandle, "wait", "gateway.handle.wait"),
            (AdmissionController, "admit", "gateway.admission.admit"),
            (Journal, "append", "gateway.journal.append",
             lambda args: rec.job_req.get(args[1].get("job_id"))),
            (WorkerPool, "send", "gateway.workers.send", None, send_note)]


def run(seed: int, seconds: float, trace: bool, *,
        per_pass: int = PER_PASS, setup_reps: int = SETUP_REPS,
        trace_passes: int = TRACE_PASSES,
        recorder: Recorder | None = None) -> Outcome:
    out = Outcome()
    tmp = ROOT / "perfbench" / "out"
    tmp.mkdir(parents=True, exist_ok=True)
    base = tempfile.mkdtemp(prefix="gateway-", dir=tmp)
    stack = None
    try:
        for rep in range(setup_reps):
            if stack is not None:
                stack.stop()
                stack = None
            t0 = time.perf_counter()
            stack = Stack(f"{base}/rep{rep}")
            warm(stack, seed)
            out.setup.append(time.perf_counter() - t0)
        measure(stack, out, seed, seconds, trace, per_pass, trace_passes,
                recorder)
    finally:
        if stack is not None:
            stack.stop()
        shutil.rmtree(base, ignore_errors=True)
    return out


def measure(stack: Stack, out: Outcome, seed: int, seconds: float,
            trace: bool, per_pass: int, trace_passes: int,
            recorder: Recorder | None) -> None:
    gw = stack.gateway
    clients = [Client(stack.port, c, seed) for c in range(CONNECTIONS)]
    journal0 = gw.journal.stats()["bytes_written"]

    def one_pass(pool: ThreadPoolExecutor) -> float:
        t0 = time.perf_counter()
        for f in [pool.submit(c.run, per_pass) for c in clients]:
            f.result()
        return time.perf_counter() - t0

    traced_wall = 0.0
    rec = None
    with ThreadPoolExecutor(CONNECTIONS) as pool:
        if trace:
            for _ in range(trace_passes):
                out.passes.append(one_pass(pool))
        else:
            while more_time(out.passes, seconds):
                out.passes.append(one_pass(pool))
        untraced_n = len(clients[0].sent)
        journal1 = gw.journal.stats()["bytes_written"]
        if trace:
            rec = recorder or Recorder()
            with patched(rec, trace_targets(rec)):
                for _ in range(trace_passes):
                    traced_wall += one_pass(pool)
    for c in clients:
        c.close()
    out.rss_mb = self_rss_mb() + sum(process_hwm_mb(p)
                                     for p in stack.worker_pids())

    sent = [r for c in clients for r in c.sent]
    untraced = [r for c in clients for r in c.sent[:untraced_n]]
    check(out, sent)
    first_pass = [r for c in clients for r in c.sent[:per_pass]]
    out.digests["gateway.first_pass"] = hashlib.sha256(
        "".join(f"{r.rid}:{digest_of(r)}\n" for r in first_pass).encode()
    ).hexdigest()
    jobs = [r for r in untraced if r.kind == "job"]
    sessions = [r for r in untraced if r.kind == "session"]
    out.notes["requests"] = {"jobs": len(jobs), "sessions": len(sessions)}
    if trace:
        out.layers.update(http_layers(gw, untraced, out.passes,
                                      out.samples))
        out.layers["gateway.journal.bytes_per_req"] = \
            (journal1 - journal0) / max(1, len(untraced))
        out.layers.update(span_layers(
            rec, [r for c in clients for r in c.sent[untraced_n:]],
            out.samples))
        out.layers["trace.overhead_s"] = traced_wall - sum(out.passes)


def digest_of(req: Request) -> str | None:
    return req.reply.get("digest")


def check(out: Outcome, sent: list[Request]) -> None:
    """Replay every request inline and compare digests."""
    from repro.serve.jobs import JobSpec
    from repro.serve.pool import run_job
    from repro.sessions import Session, SessionSpec

    tally = out.tally
    sessions: dict[str, object] = {}
    for r in sent:
        if r.status != 200 or r.reply.get("status") != "ok":
            tally.check(False, f"request {r.rid} ({r.kind}): HTTP "
                               f"{r.status} {r.reply.get('error')}")
            continue
        if r.kind == "job":
            want = run_job(JobSpec.from_dict(r.body["job"])).result.digest
        else:
            spec = r.body["session"]
            session = sessions.get(spec["name"])
            if session is None:
                session = sessions[spec["name"]] = Session.open(
                    SessionSpec.from_dict(spec))
            want = session.apply_batch(r.body["ops"]).digest
        tally.check(digest_of(r) == want,
                    f"request {r.rid} ({r.kind}): digest {digest_of(r)} "
                    f"!= inline replay {want}")


def pct_ms(layers: dict, samples: dict, name: str, values, q: float) -> None:
    """``layers[name]``: the ``q``-th percentile of ``values`` seconds in
    ms (0 with no samples); ``samples[name]``: how many there were."""
    layers[name] = 1000.0 * percentile(values, q) if values else 0.0
    samples[name] = len(values)


def http_layers(gw, untraced: list[Request], passes: list[float],
                samples: dict) -> dict:
    """Latency split from the client clock and the handles' timestamps
    (measured on the untraced passes)."""
    jobs = [r for r in untraced if r.kind == "job" and r.status == 200]
    sessions = [r for r in untraced if r.kind == "session"
                and r.status == 200]
    overhead, queue, service = [], [], {}
    for r in jobs:
        h = gw.handle(r.reply["job_id"])
        overhead.append(r.rtt_s - h.latency_s)
        queue.append(h.record.queue_wait_s)
        service.setdefault(r.body["job"]["algorithm"], []).append(
            h.record.service_s)
    for r in sessions:
        h = gw.handle(r.reply["job_id"])
        service.setdefault("session", []).append(h.done_at - h.started_at)
    layers = {
        "req_per_s": len(untraced) / sum(passes),
        "gateway.rejected": sum(r.status in (429, 503) for r in untraced),
        "gateway.retries": sum(int(r.reply.get("retries", 0))
                               for r in untraced),
    }
    job_rtt = [r.rtt_s for r in jobs]
    pct_ms(layers, samples, "job_p50_ms", job_rtt, 50)
    pct_ms(layers, samples, "job_p95_ms", job_rtt, 95)
    pct_ms(layers, samples, "session_p50_ms", [r.rtt_s for r in sessions], 50)
    pct_ms(layers, samples, "gateway.http.overhead_p50_ms", overhead, 50)
    pct_ms(layers, samples, "gateway.http.overhead_p95_ms", overhead, 95)
    pct_ms(layers, samples, "gateway.queue_wait.p50_ms", queue, 50)
    pct_ms(layers, samples, "gateway.queue_wait.p95_ms", queue, 95)
    for kind in ("sp", "pta", "engine", "mst", "session"):
        pct_ms(layers, samples, f"serve.service.{kind}.p50_ms",
               service.get(kind, []), 50)
    return layers


def span_layers(rec: Recorder, traced: list[Request], samples: dict) -> dict:
    """Per-layer times from the traced passes' spans."""
    agg = by_name(rec.spans)

    def durations(name):
        return agg.get(name, {"durations": []})["durations"]

    handler = {s[REQ]: s for s in rec.spans
               if s[NAME] == "gateway.http.handler"}
    wire = [r.rtt_s - (handler[r.rid][END] - handler[r.rid][START])
            for r in traced if r.rid in handler]
    own = self_times(rec.spans)
    layers = {"gateway.journal.append.calls":
              agg.get("gateway.journal.append", {"calls": 0})["calls"]}
    for name, q in (("gateway.submit", 50), ("gateway.submit", 95),
                    ("gateway.admission.admit", 50),
                    ("gateway.workers.send", 50),
                    ("gateway.journal.append", 50),
                    ("gateway.journal.append", 95)):
        pct_ms(layers, samples, f"{name}.p{q}_ms", durations(name), q)
    pct_ms(layers, samples, "gateway.http.handler.self_p50_ms",
           [own[s[ID]] for s in handler.values()], 50)
    pct_ms(layers, samples, "gateway.http.wire_p50_ms", wire, 50)
    return layers
