"""Inputs, statistics and provenance shared by the workloads.

Every input is a function of the workload seed; the system under test
only ever sees the generated registry, feed or request schedule.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for logs, checkpoints and server stats; inside the
#: checkout, removed after every run.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: How many times a run sets up its workload; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Companies in the serve-mixed demo inputs, read by the workload and
#: by the server launcher.
SERVE_COMPANIES = 5000


#: Median time of one :func:`host_kernel` call on the reference host
#: (2-core x86_64, Python 3.11, numpy 2.4) in a quiet stretch.
REFERENCE_KERNEL_MS = 12.0
#: Kernel calls per speed sample; the sample is their median.
KERNEL_CALLS = 7

_KERNEL_ARRAY = None


def host_kernel() -> int:
    """A fixed piece of interpreter and numpy work that never touches
    the program: tuple-keyed dict inserts, a keyed sort, a set
    comprehension and a numpy sort, the kinds of work the workloads do."""
    global _KERNEL_ARRAY
    import numpy

    if _KERNEL_ARRAY is None:
        _KERNEL_ARRAY = numpy.random.default_rng(0).integers(0, 1 << 30, 40000)
    table = {}
    for i in range(8000):
        table[(i % 89, f"n{i}")] = i * 7919 % 10007
    ordered = sorted(table.items(), key=lambda item: item[1])
    seen = {name for (_bucket, name), _value in ordered[::3]}
    numpy.sort(_KERNEL_ARRAY, kind="stable")
    return len(seen)


class HostSpeed:
    """The host's speed over a run, sampled with :func:`host_kernel`.

    A shared host's speed drifts by a third and more from one stretch of
    seconds to the next, and the program's times follow it.  Timings are
    therefore reported at the reference host's speed: a time measured
    while the kernel took ``k`` ms is scaled by ``REFERENCE_KERNEL_MS /
    k``.  Samples are taken where the system under test is idle, with
    the garbage collector off so that the program's heap does not slow
    the kernel.  An interval between two samples takes ``k`` as the
    median of the two and of the run's median sample, so one sample
    caught in a stall of the host (twice the others, now and then)
    does not rescale the interval next to it.
    """

    def __init__(self) -> None:
        host_kernel()  # first-call costs (numpy import, the array)
        self.samples_ms: List[float] = []
        self.spent_s = 0.0  # time spent sampling

    def sample(self) -> float:
        """Time the kernel now; returns the sample in ms."""
        import gc

        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(KERNEL_CALLS):
                t0 = time.perf_counter()
                host_kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.spent_s += sum(times)
        self.samples_ms.append(statistics.median(times) * 1000.0)
        return self.samples_ms[-1]

    def record(self, kernel_ms: float) -> None:
        """Add a sample taken elsewhere (in a server process)."""
        self.samples_ms.append(kernel_ms)

    def scale(self, kernel_ms: float = None) -> float:
        """Factor from measured to reference-speed time, for one sample
        or (by default) the median of the run's samples."""
        if kernel_ms is None:
            kernel_ms = statistics.median(self.samples_ms)
        return REFERENCE_KERNEL_MS / kernel_ms

    def scale_between(self, before: float, after: float) -> float:
        """Factor for an interval between two samples; call it once the
        run's samples are all taken."""
        run = statistics.median(self.samples_ms)
        return self.scale(statistics.median((before, after, run)))

    def note(self) -> Dict[str, Any]:
        return {"kernel_ms": self.samples_ms, "scale": self.scale()}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "git_sha": git_sha(),
        "argv": sys.argv[1:],
    }


# ----------------------------------------------------------------------
# Registry inputs (the shape of the company-control streaming benchmark)
#
# ``business_registry`` and ``apply_changes`` follow
# ``benchmarks/bench_stream.py``; they are repeated here, not imported,
# so that the benchmark depends only on the program under ``src/`` and
# not on a script whose protocol and inputs may change on their own.
# ``business_registry`` differs in building the graph with
# ``make_graph``, the program's default backend.
# ----------------------------------------------------------------------
def business_registry(companies: int, seed: int):
    """A shareholding registry as a plain typed property graph:
    ``Business`` and ``PhysicalPerson`` nodes, ``OWNS`` stakes."""
    from repro.finkg.generator import ShareholdingConfig, generate_shareholding_data
    from repro.graph import make_graph

    data = generate_shareholding_data(
        ShareholdingConfig(companies=companies, seed=seed)
    )
    graph = make_graph("registry")
    for pid in data.persons:
        graph.add_node(
            pid, "PhysicalPerson",
            fiscalCode=f"FC-{pid}", name=f"Person {pid}", gender="female",
        )
    for cid in data.companies:
        graph.add_node(
            cid, "Business",
            fiscalCode=f"FC-{cid}", businessName=f"{cid} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    for index, stake in enumerate(data.stakes):
        graph.add_edge(
            stake.owner, stake.company, "OWNS",
            edge_id=f"stake-{index}", percentage=stake.percentage,
        )
    return graph


def change_feed(registry, count: int, seed: int, first: int = 0) -> List[dict]:
    """``count`` CDC records: majority stakes between businesses, and
    after every second addition a churn removal of the oldest one still
    live.  Identifiers start at ``first`` so several feeds over one
    registry never collide."""
    rng = random.Random(seed * 1_000_003 + first)
    businesses = sorted((node.id for node in registry.nodes("Business")), key=str)
    records: List[dict] = []
    live: List[int] = []
    index = first
    while len(records) < count:
        owner, target = rng.sample(businesses, 2)
        records.append({
            "seq": first + len(records) + 1, "op": "add_edge",
            "id": f"cdc-stake-{index}", "source": owner, "target": target,
            "type": "OWNS",
            "properties": {"percentage": round(rng.uniform(0.5, 0.9), 4)},
        })
        live.append(index)
        index += 1
        if index % 2 == 0 and len(live) > 1 and len(records) < count:
            records.append({
                "seq": first + len(records) + 1, "op": "remove_edge",
                "id": f"cdc-stake-{live.pop(0)}",
            })
    return records


def apply_changes(registry, records: List[dict]):
    final = registry.copy()
    for record in records:
        if record["op"] == "add_edge":
            final.add_edge(
                record["source"], record["target"], record["type"],
                edge_id=record["id"], **record["properties"],
            )
        elif record["op"] == "remove_edge":
            final.remove_edge(record["id"])
        else:
            raise ValueError(f"unexpected op {record['op']!r}")
    return final


def expected_control(stakes: List[Tuple[str, str, float]]) -> Dict[str, set]:
    """Reference answer: controlled entities per controller, from the
    worklist baseline (aggregating parallel stakes first)."""
    from repro.finkg.control import control_closure

    merged: Dict[Tuple[str, str], float] = {}
    for owner, company, fraction in stakes:
        merged[(owner, company)] = merged.get((owner, company), 0.0) + fraction
    return control_closure([(o, c, f) for (o, c), f in merged.items()])
