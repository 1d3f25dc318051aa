"""KGModel benchmark: one command, three workloads, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-registry --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``batch-registry`` (Algorithm 2 from registry to deployed
store) and ``serve-mixed`` (open-loop mixed traffic against ``kgmodel
serve``), the two in ``BENCHMARK.json``, and ``stream-cdc`` (open-loop
CDC feed through ``DeltaStream``), kept for the stream layer's figures
but too unsteady on a shared host to gate a change (see ``NOTES.md``).
Timings are reported at the reference host's speed
(``common.HostSpeed``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with the layer boundaries wrapped from outside and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it is the run's provenance.  A wrong output exits 1, a run whose
load generator fell behind its schedule exits 3 (invalid, not slow),
and a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import DEFAULT_SEED, ROOT, WORK_DIR, percentile, provenance

WORKLOADS = ("batch-registry", "stream-cdc", "serve-mixed")

#: Coverage the layer self times must reach of the traced region.
COVERAGE_TOLERANCE = 0.05
#: An open-loop run is invalid when its generator issued the 99th
#: percentile operation later than this after it was due.
LATE_P99_BOUND_S = 0.500


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program sources under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, source)


def _stop(signum, _frame):
    """Leave through ``finally`` blocks, which stop the server process."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    args = _parse(argv)
    _import_program()
    import importlib

    from metrics import END_TO_END, PER_LAYER, render

    runner = importlib.import_module(args.workload.replace("-", "_")).run
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        outcome = runner(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    late_p99 = percentile(outcome.late_s, 99)
    checks = dict(outcome.checks)
    if args.trace:
        outcome.metrics["load.late_ms_p99"] = late_p99 * 1000.0
        coverage = outcome.metrics["trace.coverage"]
        checks["coverage"] = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    info = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    info.update(checks=checks, late_ms_p99=late_p99 * 1000.0, **outcome.note)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)
    if late_p99 > LATE_P99_BOUND_S:
        print(
            f"invalid run: the load generator issued its p99 operation "
            f"{late_p99 * 1000:.1f} ms late (bound "
            f"{LATE_P99_BOUND_S * 1000:.0f} ms)",
            file=sys.stderr,
        )
        return 3
    correct = outcome.failed == 0 and all(checks.values())
    spec = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": render(spec, outcome.metrics),
    }))
    if not correct:
        failing = [name for name, ok in checks.items() if not ok]
        print(
            f"wrong output: {outcome.failed} of {outcome.attempted} "
            f"operations failed; failing checks: {failing}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
