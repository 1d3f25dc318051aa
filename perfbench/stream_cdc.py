"""Workload ``stream-cdc``: an open-loop CDC feed through ``DeltaStream``.

Set-up bootstraps a 1k-company registry through ``MaterializerSink``
into a deployed ``GraphStore``.  A generator thread then issues registry
change records (majority-stake additions with churn removals) on a
fixed schedule: ``light`` is a steady feed of 3.2 records/s in groups
of ``STEADY_GROUP`` records, each group one batch; ``heavy`` is a burst
of records all due at one instant.  The two alternate ``ROUNDS`` times,
each burst issued once the steady records before it are acknowledged.
The stream runs with its defaults (fsync'd log, checkpoint every 8
batches, window of 64).  A record's lag runs from its due time to the
acknowledgement of the batch that applied it.  After every group and
burst, with the stream idle, a full collection and a host-speed sample
are taken; each group's and burst's lags are reported at the reference
host's speed (``common.HostSpeed``), scaled by the samples on either
side of it.

This workload is not in ``BENCHMARK.json``: its steady lags still
moved by a quarter and more between seeds on a shared 2-core host, with
six groups a run whose costs differ by record mix (see ``NOTES.md``).
It stays runnable for the ``stream`` layer's figures.

Gate: the streamed store equals, by ``graph_store_state``, a
from-scratch materialization of the final registry.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from common import (
    SETUP_REPEATS,
    HostSpeed,
    WORK_DIR,
    apply_changes,
    business_registry,
    change_feed,
    median,
    peak_rss_mb,
    percentile,
)
from layers import LayerTracer, install_layers, install_stream, install_vadalog_counters
from metrics import Outcome, layer_values, same_executor

COMPANIES = 1000
STEADY_RATE = 3.2  # records per second
#: The steady feed issues its records in groups, all due at one instant,
#: every ``STEADY_GROUP / STEADY_RATE`` seconds.  A group applies in well
#: under that interval, so every group is one batch whatever the host's
#: speed.  Fed one record at a time, batches took what had arrived while
#: the one before applied, so batch sizes, the batch count and where the
#: checkpoints (every 8 batches) landed all followed the host's timing,
#: and one seed's lags moved by a third from run to run.
STEADY_GROUP = 8
#: The steady feed and the bursts alternate this many times.  One burst
#: drains in seconds, so its lags sample the host over one short
#: stretch; several bursts spread over the run average that out.
ROUNDS = 3
BURST_RECORDS = 192  # per round: 3 windows of 64
#: How long the generator waits for the stream to acknowledge a phase.
DRAIN_TIMEOUT_S = 60.0


class ScheduledFeed:
    """A feed source that yields what the generator has issued so far.

    Only ``poll`` is provided: the stream seeks its source only when it
    resumes from a checkpoint, which this workload never does.
    """

    name = "perfbench-cdc"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready: deque = deque()
        self._issued = 0

    def offer(self, texts: List[str]) -> None:
        from repro.stream.feed import RawRecord

        with self._lock:
            for text in texts:
                self._issued += 1
                self._ready.append(RawRecord(text, self._issued))

    def poll(self, max_records: int = 256):
        with self._lock:
            count = min(max_records, len(self._ready))
            return [self._ready.popleft() for _ in range(count)]


@dataclass
class _Setup:
    schema: object
    sigma: object
    base: object
    sink: object
    store: object


def _setup(seed: int) -> _Setup:
    from repro.deploy import GraphStore
    from repro.finkg import programs
    from repro.finkg.company_schema import company_super_schema
    from repro.metalog import parse_metalog
    from repro.ssst import SSST
    from repro.stream import MaterializerSink

    schema = company_super_schema()
    sigma = parse_metalog(programs.CONTROL_PROGRAM)
    registry = business_registry(COMPANIES, seed)
    base = registry.copy()
    sink = MaterializerSink(schema, sigma, registry)
    store = GraphStore()
    store.deploy(SSST().translate(schema, "property-graph").target_schema)
    sink.attach_graph_store(store)
    sink.bootstrap()
    return _Setup(schema, sigma, base, sink, store)


@dataclass
class _Pass:
    """One stream run: per-record due and acknowledgement times."""

    steady: List[dict]
    burst: List[dict]
    due: Dict[int, float] = field(default_factory=dict)
    acked: Dict[int, float] = field(default_factory=dict)
    busy: Dict[int, float] = field(default_factory=dict)  # batch apply time
    late: List[float] = field(default_factory=list)
    burst_delta_facts: float = 0.0  # chase output while bursts drained
    #: Per burst, its drain time and its segment.
    burst_drains: List[Tuple[float, int]] = field(default_factory=list)
    #: Host-speed samples, one before the feed and one after every group
    #: and burst; segment i (a record's, a burst's) runs between samples
    #: i and i + 1.
    kernel_ms: List[float] = field(default_factory=list)
    segment: Dict[int, int] = field(default_factory=dict)
    steady_wall: float = 0.0  # summed over rounds
    steady_busy: float = 0.0  # apply time within steady_wall
    report: object = None
    timed_out: bool = False


def _stream_pass(setup: _Setup, seed: int, seconds: float, speed: HostSpeed,
                 tracer: LayerTracer = None, sleep=time.sleep) -> _Pass:
    from repro.stream import DeltaStream

    groups = max(ROUNDS, int(round(STEADY_RATE * seconds / STEADY_GROUP)))
    n_steady = groups * STEADY_GROUP
    steady = change_feed(setup.base, n_steady, seed)
    burst = change_feed(setup.base, BURST_RECORDS * ROUNDS, seed, first=n_steady)
    result = _Pass(steady=steady, burst=burst)
    feed = ScheduledFeed()
    log_dir = os.path.join(WORK_DIR, f"stream-{time.monotonic_ns()}")
    setup.sink.bootstrap = lambda: None  # bootstrapped during set-up
    polling = threading.Event()  # set whenever the stream polls an empty feed

    def idle_sleep(seconds: float) -> None:
        polling.set()
        sleep(seconds)

    stream = DeltaStream(feed, setup.sink, log_dir, follow=True, sleep=idle_sleep)

    # The stream has no public per-record acknowledgement hook, so this
    # instance's acknowledgement step is wrapped to stamp ack times.
    acknowledge = stream._acknowledge
    applied = [0.0]
    progress = threading.Condition()  # notified on every acknowledgement

    def stamped_acknowledge(window, outcome):
        acknowledge(window, outcome)
        now = time.perf_counter()
        batch_busy = stream.report.apply_seconds - applied[0]
        applied[0] = stream.report.apply_seconds
        with progress:
            for _offset, record, _arrived in window:
                result.acked[record.seq] = now
                result.busy[record.seq] = batch_busy
            progress.notify_all()

    stream._acknowledge = stamped_acknowledge
    delta_key = "vadalog.apply_delta.delta_facts"
    aborted = threading.Event()  # the stream stopped with an error

    def settled(count: int) -> bool:
        """Wait until ``count`` records are acknowledged or quarantined
        and the stream, done with any checkpoint that followed, polls
        again.  Woken by each acknowledgement, so the wait takes no
        interpreter time from the stream while it applies a batch."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        with progress:
            while len(result.acked) + stream.report.records_quarantined < count:
                if aborted.is_set():
                    return False
                if time.perf_counter() > deadline:
                    result.timed_out = True
                    return False
                progress.wait(0.1)
        polling.clear()
        while not polling.wait(0.1):
            if aborted.is_set():
                return False
            if time.perf_counter() > deadline:
                result.timed_out = True
                return False
        return True

    def between_batches() -> None:
        """With the stream idle: a full collection, so that every group
        and burst starts from the same heap state whatever the timing
        of the polls before it left, then a host-speed sample."""
        gc.collect()
        result.kernel_ms.append(speed.sample())

    def generate() -> None:
        try:
            issued = 0
            for round_ in range(ROUNDS):
                first = round_ * groups // ROUNDS * STEADY_GROUP
                part = steady[first:(round_ + 1) * groups // ROUNDS * STEADY_GROUP]
                busy = stream.report.apply_seconds
                start = time.perf_counter() + 0.2
                for index in range(0, len(part), STEADY_GROUP):
                    group = part[index:index + STEADY_GROUP]
                    due = start + index / STEADY_RATE
                    delay = due - time.perf_counter()
                    if delay > 0 and aborted.wait(delay):
                        return
                    result.late.append(time.perf_counter() - due)
                    for record in group:
                        result.due[record["seq"]] = due
                        result.segment[record["seq"]] = len(result.kernel_ms) - 1
                    feed.offer([json.dumps(r, sort_keys=True) for r in group])
                    issued += len(group)
                    if not settled(issued):
                        return
                    between_batches()
                result.steady_wall += max(result.acked.values()) - start
                result.steady_busy += stream.report.apply_seconds - busy

                part = burst[round_ * BURST_RECORDS:(round_ + 1) * BURST_RECORDS]
                facts = tracer.count(delta_key) if tracer is not None else 0.0
                due = time.perf_counter()
                for record in part:
                    result.due[record["seq"]] = due
                    result.segment[record["seq"]] = len(result.kernel_ms) - 1
                feed.offer([json.dumps(record, sort_keys=True) for record in part])
                issued += len(part)
                if not settled(issued):
                    return
                result.burst_drains.append(
                    (max(result.acked.values()) - due, len(result.kernel_ms) - 1)
                )
                between_batches()
                if tracer is not None:
                    result.burst_delta_facts += tracer.count(delta_key) - facts
        finally:
            stream.stop()

    result.kernel_ms.append(speed.sample())
    generator = threading.Thread(target=generate, name="perfbench-cdc-generator")
    generator.start()
    try:
        result.report = stream.run()
    finally:
        aborted.set()
        stream.stop()
        generator.join()
    return result


def _gate(setup: _Setup, result: _Pass) -> bool:
    from repro.deploy import GraphStore, loaders
    from repro.deploy.resilience import graph_store_state
    from repro.ssst import SSST, IntensionalMaterializer

    final = apply_changes(setup.base, result.steady + result.burst)
    reference = IntensionalMaterializer().materialize(
        setup.schema, final, setup.sigma
    )
    store = GraphStore()
    store.deploy(SSST().translate(setup.schema, "property-graph").target_schema)
    loaders.load_graph_store(setup.schema, reference.instance.data, store)
    return graph_store_state(setup.store) == graph_store_state(store)


def _scale(result: _Pass, segment: int, speed: HostSpeed) -> float:
    """Measured to reference-speed time, for one segment of the run."""
    marks = result.kernel_ms
    return speed.scale_between(marks[segment], marks[segment + 1])


def _scaled_lags(result: _Pass, records: List[dict], speed: HostSpeed) -> List[float]:
    return [
        (result.acked[r["seq"]] - result.due[r["seq"]])
        * _scale(result, result.segment[r["seq"]], speed)
        for r in records
        if r["seq"] in result.acked
    ]


def _lags(result: _Pass, records: List[dict]) -> List[float]:
    return [
        result.acked[r["seq"]] - result.due[r["seq"]]
        for r in records
        if r["seq"] in result.acked
    ]


def _failed(result: _Pass) -> int:
    total = len(result.steady) + len(result.burst)
    return total - len(result.acked) + result.report.records_quarantined


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    speed = HostSpeed()
    if trace:
        return _run_traced(seed, seconds, speed)
    setups = []
    for _ in range(SETUP_REPEATS):
        scale = speed.scale(speed.sample())
        t0 = time.perf_counter()
        setup = _setup(seed)
        setups.append((time.perf_counter() - t0) * scale)
    result = _stream_pass(setup, seed, seconds, speed)
    rss = peak_rss_mb()
    ms = 1000.0
    steady = _scaled_lags(result, result.steady, speed)
    burst = _scaled_lags(result, result.burst, speed)
    drains = [drain * _scale(result, i, speed) for drain, i in result.burst_drains]
    return Outcome(
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "p50_ms.light": percentile(steady, 50) * ms,
            "p50_ms.heavy": percentile(burst, 50) * ms,
        },
        attempted=len(result.steady) + len(result.burst),
        failed=_failed(result),
        checks={"gate": _gate(setup, result), "drained": not result.timed_out},
        late_s=result.late,
        note={"batches": result.report.batches_applied,
              "steady_p95_ms": percentile(steady, 95) * ms,
              "burst_drains_ms": [d * ms for d in drains],
              "steady_lags_ms": [round(lag * ms) for lag in steady],
              "host_speed": speed.note()},
    )


def _run_traced(seed: int, seconds: float, speed: HostSpeed) -> Outcome:
    """The stream once with only the chase counters and stream roots
    wrapped (the untraced reference), then once with every layer.  Each
    pass's CPU time, less its speed sampling, is taken at reference
    speed for the overhead."""
    reference = LayerTracer()
    install_vadalog_counters(reference)
    install_stream(reference, detail=False)
    ref_speed = HostSpeed()
    try:
        setup = _setup(seed)
        ref_cpu = time.process_time()
        ref = _stream_pass(setup, seed, seconds, ref_speed, tracer=reference)
        ref_cpu = time.process_time() - ref_cpu
    finally:
        reference.uninstall()
    ref_ok = _gate(setup, ref)
    ref_cpu = (ref_cpu - ref_speed.spent_s) * ref_speed.scale()

    traced = LayerTracer()
    install_layers(traced)
    install_stream(traced)
    try:
        setup = _setup(seed)
        traced_cpu = time.process_time()
        result = _stream_pass(
            setup, seed, seconds, speed, tracer=traced,
            sleep=traced.wrapper(time.sleep, "stream.idle"),
        )
        traced_cpu = time.process_time() - traced_cpu
    finally:
        traced.uninstall()
    traced_cpu = (traced_cpu - speed.spent_s) * speed.scale()
    ok = _gate(setup, result)

    report = result.report
    steady = _lags(result, result.steady)
    burst = _lags(result, result.burst)
    waits = [
        result.acked[r["seq"]] - result.due[r["seq"]] - result.busy[r["seq"]]
        for r in result.steady
        if r["seq"] in result.acked
    ]
    values = layer_values(traced)
    values.update({
        "stream.batches": report.batches_applied,
        "stream.records_per_batch": report.records_seen / max(1, report.batches_applied),
        "stream.coalesce_ratio": report.coalesce_ratio(),
        "stream.apply_busy_share": result.steady_busy / result.steady_wall,
        "stream.queue_wait_p50_s": percentile(waits, 50),
        "stream.burst_upd_per_s": len(burst) / sum(d for d, _i in result.burst_drains),
        "trace.overhead": traced_cpu / ref_cpu,
        "host.kernel_ms": median(speed.samples_ms),
    })
    attempted = 2 * (len(result.steady) + len(result.burst))
    failed = _failed(result) + _failed(ref)
    values["run.ops_failed_share"] = failed / attempted
    burst_facts = result.burst_delta_facts
    ref_burst_facts = ref.burst_delta_facts
    return Outcome(
        metrics=values,
        attempted=attempted,
        failed=failed,
        checks={
            "gate": ok and ref_ok,
            "drained": not (result.timed_out or ref.timed_out),
            "same_executor": same_executor(reference, traced, outside_only=True)
            and burst_facts == ref_burst_facts,
        },
        late_s=result.late + ref.late,
        note={"burst_delta_facts": [ref_burst_facts, burst_facts],
              "host_speed": speed.note()},
    )
