"""Run ``kgmodel serve`` for the serve-mixed workload in its own process.

Usage::

    python3 perfbench/serve_launcher.py --seed 1 \\
        --layers none|reference|full --stats-out FILE

Starts the demo server (``demo_serve_inputs`` over ``SERVE_COMPANIES``
companies) on a free port through the command-line entry point and
prints its ``serving on`` line.  With
``--layers reference`` only the chase counters and the request root are
wrapped; with ``--layers full`` every layer boundary is, and each
request's handling time is recorded by its ``rid`` parameter.  A
``GET /healthz?perfbench_mark=1`` request freezes the recorded figures,
so the correctness probes sent after the load do not count.  A
``GET /healthz?perfbench_kernel=1`` request samples the host's speed
in the server process (``common.HostSpeed``) and answers
``{"kernel_ms": ...}`` without reaching the program.  SIGINT stops the
server; the frozen figures are then written to ``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from common import ROOT, SERVE_COMPANIES, HostSpeed

sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import (  # noqa: E402
    LayerTracer,
    install_layers,
    install_serve,
    install_vadalog_counters,
)


def _kind(path: str, params) -> str:
    path = path.rstrip("/")
    if path == "/query":
        return params.get("engine", "snapshot")
    return path.strip("/") or "root"


class Recorder:
    """Per-request handling times, keyed by the client's request id."""

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self.lock = threading.Lock()
        self.handle_ms = {}
        self.by_kind = {}
        self.scanned = 0
        self.answers = 0
        self.frozen = None

    def install(self, record: bool) -> None:
        from repro.serve.handlers import ServiceHandlers
        from repro.vadalog.magic import parse_query

        inner = ServiceHandlers.handle
        recorder = self

        def handle(self, method, path, params, body=None):
            if "perfbench_mark" in params:
                recorder.freeze()
            snap = self.state.snapshot
            start = time.perf_counter()
            status, payload = inner(self, method, path, params, body)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            if not record or "rid" not in params:
                return status, payload
            kind = _kind(path, params)
            scanned = 0
            if (
                kind == "snapshot" and status == 200
                and not payload.get("cached")
                and payload.get("epoch") == snap.epoch
            ):
                scanned = snap.count(parse_query(params["q"]).predicate)
            with recorder.lock:
                recorder.handle_ms[params["rid"]] = elapsed_ms
                recorder.by_kind.setdefault(kind, []).append(elapsed_ms)
                if scanned:
                    recorder.scanned += scanned
                    recorder.answers += payload.get("answer_count", 0)
            return status, payload

        ServiceHandlers.handle = handle

    def freeze(self) -> None:
        with self.lock:
            self.frozen = {
                "tracer": self.tracer.state(),
                "handle_ms": dict(self.handle_ms),
                "by_kind": {k: list(v) for k, v in self.by_kind.items()},
                "scanned": self.scanned,
                "answers": self.answers,
            }


def install_kernel_probe() -> None:
    """Answer speed-sample requests before any other wrapper sees them."""
    from repro.serve.handlers import ServiceHandlers

    inner = ServiceHandlers.handle
    speed = HostSpeed()

    def handle(self, method, path, params, body=None):
        if "perfbench_kernel" in params:
            return 200, {"kernel_ms": speed.sample()}
        return inner(self, method, path, params, body)

    ServiceHandlers.handle = handle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--layers", choices=("none", "reference", "full"), default="none"
    )
    parser.add_argument("--stats-out", default=None)
    args = parser.parse_args(argv)

    from repro.cli import main as kgmodel

    # SIGINT stops the server.  A parent started without job control can
    # hand this process SIGINT ignored, so restore the default handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = None
    if args.layers != "none":
        tracer = LayerTracer()
        if args.layers == "full":
            install_layers(tracer)
        else:
            install_vadalog_counters(tracer)
        install_serve(tracer, detail=args.layers == "full")
        recorder = Recorder(tracer)
        recorder.install(record=args.layers == "full")
    install_kernel_probe()
    try:
        status = kgmodel([
            "serve", "--demo-companies", str(SERVE_COMPANIES),
            "--seed", str(args.seed), "--port", "0",
        ])
    except KeyboardInterrupt:  # stopped before serve_forever() began
        status = 0
    if recorder is not None and args.stats_out:
        if recorder.frozen is None:
            recorder.freeze()
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.frozen, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
