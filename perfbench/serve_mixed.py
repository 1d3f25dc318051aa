"""Workload ``serve-mixed``: open-loop mixed traffic against ``kgmodel serve``.

The server runs the company-control demo over ``demo_serve_inputs``
(5k companies) in its own process, started by ``serve_launcher.py``.
Two client connections send requests on a fixed schedule, whatever the
server is doing: ``light`` is 20 requests/s and ``heavy`` 30
requests/s.  The server handles one request at a time on the Python
interpreter, about 13 ms each on average on a 2-core host, so the two
rates keep it about a quarter and two fifths busy.  At 35 and 40
requests/s the heavy phase's 95th percentile spread more between runs
than its median: waiting grows faster than handling time as the server
fills, so the tail amplified the host's drift.  The phases alternate in
``BLOCKS`` blocks each, so both sample the host over the whole run.
Each block starts once the one before it is answered; in between, with
the server idle, the host's speed is sampled in the server process, and
each block's latencies are reported at the reference host's speed
(``common.HostSpeed``), scaled by the samples just before and just
after the block.
The mix is 80% snapshot ``controls(c, B)?`` queries with Zipf-skewed
subjects, 10% magic-sets queries, 5% ``/neighborhood`` and 5%
``POST /delta`` stake additions, in exact proportions within every
cycle of 20 requests.  Magic-sets and neighborhood subjects are drawn
uniformly: their cost grows with the subject's control cone, and with
Zipf subjects the few hot ones a seed picks decided the tail.  Writes
do not remove stakes: each removal falls back to a full-stratum
recompute (about 0.33 s at 5k companies) that stalls the server, and
the two to four of them a phase holds decided where the tail landed.
The ``stream-cdc`` churn measures that path.
Latency runs from a request's due time to the end of its response.

Gate: after the load, sampled subjects are asked in snapshot and in
magic mode; both answers must equal the worklist baseline over the
final ``own`` facts.  Writes add stakes between fresh company pairs, so
they commute and the final facts do not depend on how the two
connections interleave.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from common import (
    SERVE_COMPANIES,
    SETUP_REPEATS,
    HostSpeed,
    WORK_DIR,
    expected_control,
    median,
    peak_rss_mb,
    percentile,
)
from layers import LayerTracer
from metrics import Outcome, layer_values, same_executor

RATES = (("light", 20.0), ("heavy", 30.0))
#: Each phase runs as this many blocks, alternating with the other
#: phase's, so both phases sample the host over the whole run.
BLOCKS = 6
#: Request kinds per cycle of 20; each cycle is shuffled, so every phase
#: holds the mix in these proportions.
MIX = (("snapshot", 16), ("magic", 2), ("neighborhood", 1), ("write", 1))
ZIPF_S = 1.1
GATE_SUBJECTS = 12  # random subjects, plus as many touched by writes
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
HERE = os.path.dirname(os.path.abspath(__file__))


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """``kgmodel serve`` in a child process, ready once it prints its URL."""

    def __init__(self, seed: int, layers: str = "none",
                 stats_out: Optional[str] = None):
        command = [
            sys.executable, os.path.join(HERE, "serve_launcher.py"),
            "--seed", str(seed), "--layers", layers,
        ]
        if stats_out:
            command += ["--stats-out", stats_out]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE)
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if line.startswith("serving on http://"):
                    address = line.split("http://", 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("the server did not become ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def kernel_ms(self) -> float:
        """A host-speed sample taken in the server process."""
        _status, payload = self.get("/healthz?perfbench_kernel=1")
        return payload["kernel_ms"]

    def get(self, path: str):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Inputs: the request schedule and the reference answers
# ----------------------------------------------------------------------
@dataclass
class Request:
    phase: str
    block: int
    offset: float  # seconds after the block starts
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Plan:
    requests: List[Request]
    own: set  # the final ``own`` facts
    touched: List[str]  # companies whose stakes the writes changed
    companies: List[str]


def _plan(seed: int, seconds: float) -> Plan:
    from repro.cli import demo_serve_inputs

    _program, inputs = demo_serve_inputs(SERVE_COMPANIES, seed)
    rng = random.Random(seed)
    companies = [c for (c,) in inputs["company"]]
    ranked = list(companies)
    rng.shuffle(ranked)
    cumulative, total = [], 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    original = sorted(inputs["own"])
    own = set(original)
    pairs = {(o, c) for o, c, _w in original}
    cycle = [kind for kind, slots in MIX for _ in range(slots)]

    # Each phase's kinds in exact proportions, then laid out in blocks
    # that alternate between the phases.
    per_block = {phase: int(round(rate * seconds / BLOCKS)) for phase, rate in RATES}
    kinds: Dict[str, List[str]] = {}
    for phase, _rate in RATES:
        kinds[phase] = []
        while len(kinds[phase]) < per_block[phase] * BLOCKS:
            rng.shuffle(cycle)
            kinds[phase] += cycle

    requests: List[Request] = []
    touched: List[str] = []
    for block in range(BLOCKS):
        for slot, (phase, rate) in enumerate(RATES):
            block_id = block * len(RATES) + slot
            count = per_block[phase]
            block_kinds = kinds[phase][block * count:(block + 1) * count]
            for index, kind in enumerate(block_kinds):
                offset = index / rate
                rid = len(requests)
                if kind == "snapshot":
                    subject = rng.choices(ranked, cum_weights=cumulative)[0]
                else:
                    subject = rng.choice(companies)
                if kind in ("snapshot", "magic"):
                    query = quote(f'controls("{subject}", B)?')
                    path = f"/query?q={query}&rid={rid}"
                    if kind == "magic":
                        path += "&engine=magic"
                    requests.append(Request(phase, block_id, offset, kind, "GET", path))
                elif kind == "neighborhood":
                    path = (f"/neighborhood?node={quote(subject)}"
                            f"&predicate=controls&depth=2&rid={rid}")
                    requests.append(Request(phase, block_id, offset, kind, "GET", path))
                else:
                    while True:
                        owner, company = rng.sample(companies, 2)
                        if (owner, company) not in pairs:
                            break
                    pairs.add((owner, company))
                    fact = (owner, company, round(rng.uniform(0.3, 0.7), 4))
                    own.add(fact)
                    body = {"added": {"own": [list(fact)]}}
                    touched.append(owner)
                    requests.append(Request(
                        phase, block_id, offset, "delta", "POST", f"/delta?rid={rid}",
                        json.dumps(body).encode("utf-8"),
                    ))
    return Plan(requests, own, touched, companies)


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------
@dataclass
class Sent:
    latency: float
    ok: bool
    late: float


def _drive(server: Server, requests: List[Request]) -> List[Sent]:
    """Send every request at its due time over two connections; a
    request due while both are busy waits, and that wait counts."""
    results: List[Optional[Sent]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.2

    def worker() -> None:
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] += 1
                request = requests[index]
                due = start + request.offset
                picked = time.perf_counter()
                if picked < due:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                try:
                    headers = {"Content-Type": "application/json"} if request.body else {}
                    conn.request(request.method, request.path, request.body, headers)
                    response = conn.getresponse()
                    response.read()
                    ok = response.status == 200
                except (OSError, http.client.HTTPException):
                    ok = False
                    conn.close()
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=REQUEST_TIMEOUT_S
                    )
                results[index] = Sent(
                    time.perf_counter() - due, ok, sent - max(due, picked)
                )
        finally:
            conn.close()

    helper = threading.Thread(target=worker, name="perfbench-serve-client")
    helper.start()
    try:
        worker()
    finally:
        helper.join()
    return results


def _gate(server: Server, plan: Plan, seed: int) -> Tuple[int, int]:
    """Ask sampled subjects in both modes; returns (asked, wrong)."""
    closure = expected_control(list(plan.own))
    rng = random.Random(seed + 1)
    subjects = rng.sample(plan.companies, GATE_SUBJECTS)
    known = set(plan.companies)
    subjects += sorted({s for s in plan.touched if s in known})[:GATE_SUBJECTS]
    asked = wrong = 0
    for subject in subjects:
        expected = {subject} | closure.get(subject, set())
        for engine in ("snapshot", "magic"):
            query = quote(f'controls("{subject}", B)?')
            status, payload = server.get(f"/query?q={query}&engine={engine}")
            asked += 1
            answers = {row[1] for row in payload.get("answers", [])}
            if status != 200 or payload.get("limited") or answers != expected:
                wrong += 1
    return asked, wrong


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@dataclass
class _Pass:
    plan: Plan
    sent: List[Sent]
    scales: List[float]  # per block, measured to reference-speed time
    stats: Dict = field(default_factory=dict)
    asked: int = 0
    wrong: int = 0
    layers: Optional[Dict] = None

    def scaled(self, phase: str) -> List[float]:
        """The phase's latencies at reference speed."""
        return [
            s.latency * self.scales[r.block]
            for s, r in zip(self.sent, self.plan.requests)
            if r.phase == phase
        ]

    def latencies(self, phase: str, kind: Optional[str] = None) -> List[float]:
        return [
            s.latency for s, r in zip(self.sent, self.plan.requests)
            if r.phase == phase and (kind is None or r.kind == kind)
        ]

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.sent) + self.wrong

    @property
    def attempted(self) -> int:
        return len(self.sent) + self.asked


def _load_pass(server: Server, plan: Plan, seed: int, speed: HostSpeed,
               stats_out: Optional[str] = None) -> _Pass:
    """Drive the blocks one after the other, sampling the host's speed
    in the server before each while it is idle, then gate the answers."""
    try:
        sent, scales = [], []
        before = server.kernel_ms()
        speed.record(before)
        for block in range(BLOCKS * len(RATES)):
            sent += _drive(
                server, [r for r in plan.requests if r.block == block]
            )
            after = server.kernel_ms()
            speed.record(after)
            scales.append((before, after))
            before = after
        scales = [speed.scale_between(b, a) for b, a in scales]
        server.get("/healthz?perfbench_mark=1")
        _status, stats = server.get("/stats")
        asked, wrong = _gate(server, plan, seed)
    finally:
        server.stop()
    result = _Pass(plan, sent, scales, stats, asked, wrong)
    if stats_out:
        with open(stats_out, encoding="utf-8") as handle:
            result.layers = json.load(handle)
    return result


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(seed, seconds)
    setup_speed, speed = HostSpeed(), HostSpeed()
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        scale = setup_speed.scale(setup_speed.sample())
        t0 = time.perf_counter()
        plan = _plan(seed, seconds)
        server = Server(seed)
        setups.append((time.perf_counter() - t0) * scale)
    result = _load_pass(server, plan, seed, speed)
    light = result.scaled("light")
    heavy = result.scaled("heavy")
    return Outcome(
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "p50_ms.light": percentile(light, 50) * 1000.0,
            "p50_ms.heavy": percentile(heavy, 50) * 1000.0,
        },
        attempted=result.attempted,
        failed=result.failed,
        late_s=[s.late for s in result.sent],
        note={"p95_ms": {"light": percentile(light, 95) * 1000.0,
                         "heavy": percentile(heavy, 95) * 1000.0},
              "epochs": result.stats.get("epoch"),
              "cache": result.stats.get("cache"),
              "host_speed": speed.note()},
    )


def _run_traced(seed: int, seconds: float) -> Outcome:
    """The load once against a server with only the chase counters and
    the request root wrapped (the untraced reference), then once with
    every layer wrapped.  Each pass's summed handling time is taken at
    reference speed for the overhead."""
    passes, speeds = {}, {}
    for layers in ("reference", "full"):
        stats_out = os.path.join(WORK_DIR, f"serve-{layers}.json")
        plan = _plan(seed, seconds)
        server = Server(seed, layers=layers, stats_out=stats_out)
        speeds[layers] = HostSpeed()
        passes[layers] = _load_pass(server, plan, seed, speeds[layers], stats_out)
    ref, full = passes["reference"], passes["full"]
    reference = LayerTracer.from_state(ref.layers["tracer"])
    traced = LayerTracer.from_state(full.layers["tracer"])

    values = layer_values(traced)
    by_kind = full.layers["by_kind"]
    for kind in ("snapshot", "magic", "neighborhood", "delta"):
        values[f"serve.handle_ms_p50.{kind}"] = percentile(by_kind.get(kind, []), 50)
    handle_ms = full.layers["handle_ms"]
    waits = [
        s.latency * 1000.0 - handle_ms[str(rid)]
        for rid, (s, r) in enumerate(zip(full.sent, full.plan.requests))
        if r.phase == "heavy" and str(rid) in handle_ms
    ]
    cache = full.stats.get("cache", {})
    attempted = ref.attempted + full.attempted
    failed = ref.failed + full.failed
    values.update({
        "serve.wait_ms_p50": percentile(waits, 50),
        "serve.client_magic_ms_p50": percentile(full.latencies("light", "magic"), 50) * 1000.0,
        "serve.client_write_ms_p50": percentile(full.latencies("light", "delta"), 50) * 1000.0,
        "serve.client_p95_ms.light": percentile(full.latencies("light"), 95) * 1000.0,
        "serve.client_p95_ms.heavy": percentile(full.latencies("heavy"), 95) * 1000.0,
        "serve.cache_hit_rate": cache.get("hit_rate", 0.0),
        "serve.cache_invalidations": cache.get("invalidations", 0),
        "serve.snapshot_scan_per_answer": (
            full.layers["scanned"] / max(1, full.layers["answers"])
        ),
        "serve.epochs": full.stats.get("epoch", 0),
        "trace.overhead": (traced.region_s * speeds["full"].scale())
        / (reference.region_s * speeds["reference"].scale()),
        "host.kernel_ms": median(speeds["full"].samples_ms),
        "run.ops_failed_share": failed / attempted,
    })
    return Outcome(
        metrics=values,
        attempted=attempted,
        failed=failed,
        checks={"same_executor": same_executor(reference, traced, outside_only=True)},
        late_s=[s.late for s in ref.sent + full.sent],
        note={"host_speed": speeds["full"].note()},
    )
