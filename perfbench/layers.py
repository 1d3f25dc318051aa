"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces public functions of the system with thin
wrappers (module attributes and class attributes, restored by
:meth:`LayerTracer.uninstall`).  Nothing is passed into the program: an
``Engine`` or ``DeltaStream`` built with a tracer of its own switches
to other code paths (an attached engine tracer turns off the vectorized
rule matcher), so the traced run would time a different executor.

Every wrapper keeps a per-thread stack.  A call's *self time* is its
duration minus the durations of the wrapped calls made inside it, so
the self times of one region add up to the region's wall time.  Calls
are only timed inside a region: a root wrapper (or :meth:`region`)
opens one, and a wrapped call made outside any region is only counted,
under ``<name>@outside``.

A region root's own self time is *unattributed*, like the benchmark's
own code inside :meth:`region`: it is time the region spent outside
every wrapped layer boundary.  The share of the region that the layers
do account for (:func:`metrics.coverage`) therefore falls when work
moves out of the wrapped boundaries, and the traced run checks it.
"""

from __future__ import annotations

import copy
import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

UNATTRIBUTED = "unattributed"


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTracer:
    """Self-time and count accounting for wrapped functions."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.layer_of: Dict[str, str] = {UNATTRIBUTED: UNATTRIBUTED}
        self.region_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- accounting ---------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str, values: Dict[str, float]) -> None:
        with self._lock:
            for key, value in values.items():
                self.counts[f"{name}.{key}"] += value

    def _call(self, name, root, samples, counter, func, args, kwargs):
        stack = self._stack()
        if not stack and not root:
            result = func(*args, **kwargs)
            name = f"{name}@outside"
            with self._lock:
                self.calls[name] += 1
        else:
            frame = _Frame()
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += duration
                with self._lock:
                    self.self_s[name] += duration - frame.child
                    self.calls[name] += 1
                    if samples:
                        self.durations[name].append(duration)
                    if not stack:
                        self.region_s += duration
        if counter is not None:
            self._count(name, counter(result, args, kwargs))
        return result

    @contextmanager
    def region(self):
        """Time a block of the benchmark's own code as a region root;
        its self time is reported as ``unattributed``."""
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.self_s[UNATTRIBUTED] += duration - frame.child
                self.region_s += duration

    # -- patching -----------------------------------------------------
    def wrapper(
        self,
        func: Callable,
        name: str,
        *,
        root: bool = False,
        samples: bool = False,
        counter: Optional[Callable] = None,
    ) -> Callable:
        """Return ``func`` wrapped under ``name`` (``layer.what``); a
        ``root`` opens a region and its self time is unattributed."""
        self.layer_of[name] = UNATTRIBUTED if root else name.split(".", 1)[0]
        call = self._call

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            return call(name, root, samples, counter, func, args, kwargs)

        return wrapped

    def wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method) in place."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.wrapper(original.__func__, name, **options)
            )
        else:
            replacement = self.wrapper(original, name, **options)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def wrap_function(self, module: Any, attr: str, name: str, **options) -> None:
        """Wrap a module-level function everywhere it was imported by
        name, so callers that did ``from m import f`` see the wrapper."""
        original = getattr(module, attr)
        replacement = self.wrapper(original, name, **options)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, replacement)
                self._patches.append((loaded, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------
    _STATE = ("self_s", "calls", "counts", "durations", "layer_of")

    def state(self) -> Dict[str, Any]:
        """A JSON-ready copy of everything recorded so far."""
        with self._lock:
            out = {key: copy.deepcopy(dict(getattr(self, key))) for key in self._STATE}
            out["region_s"] = self.region_s
        return out

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "LayerTracer":
        """Rebuild a tracer's figures recorded in another process."""
        tracer = cls()
        for key in cls._STATE:
            getattr(tracer, key).update(state[key])
        tracer.region_s = state["region_s"]
        return tracer

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[self.layer_of.get(name, name)] += seconds
        return dict(out)

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)

    def n_calls(self, name: str) -> int:
        return self.calls.get(name, 0)


# ----------------------------------------------------------------------
# What is wrapped: the public boundaries of each layer of ``src/repro``
# ----------------------------------------------------------------------
def _rows(result, args, kwargs):
    ids = kwargs["ids"] if "ids" in kwargs else args[2]
    return {"rows": len(ids)}


def _database_facts(result, args, kwargs):
    return {"facts": sum(result.count(p) for p in result.predicates())}


def _derived(result, args, kwargs):
    return {"facts_derived": result.stats.facts_derived}


def _delta_facts(result, args, kwargs):
    return {"delta_facts": result.total_added + result.total_removed}


def _loaded(result, args, kwargs):
    nodes, edges = result
    return {"elements": nodes + edges}


def _changes(result, args, kwargs):
    return {"changes": result.total_changes}


def install_vadalog_counters(tracer: LayerTracer) -> None:
    """The two chase entry points whose fact counts the traced run must
    reproduce; the untraced reference pass installs only these and the
    region roots."""
    from repro.vadalog.engine import Engine

    tracer.wrap_method(Engine, "run", "vadalog.run", counter=_derived)
    tracer.wrap_method(
        Engine, "apply_delta", "vadalog.apply_delta", counter=_delta_facts
    )


def install_layers(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core.instances import SuperInstance
    from repro.deploy import delta, graph_store, loaders
    from repro.graph.columnar_graph import ColumnarPropertyGraph
    from repro.graph.property_graph import PropertyGraph
    from repro.metalog import mtv
    from repro.ssst.materializer import IntensionalMaterializer
    from repro.vadalog.magic import GoalDirectedEvaluator

    for cls in (PropertyGraph, ColumnarPropertyGraph):
        tracer.wrap_method(cls, "add_nodes_bulk", "graph.bulk_insert", counter=_rows)
        tracer.wrap_method(cls, "add_edges_bulk", "graph.bulk_insert", counter=_rows)
        tracer.wrap_method(cls, "nodes_table", "graph.table_read")
        tracer.wrap_method(cls, "edges_table", "graph.table_read")
    tracer.wrap_method(SuperInstance, "to_dictionary", "core.to_dictionary")
    tracer.wrap_method(SuperInstance, "from_dictionary", "core.from_dictionary")
    tracer.wrap_function(
        mtv, "graph_to_database", "metalog.graph_to_database",
        counter=_database_facts,
    )
    install_vadalog_counters(tracer)
    tracer.wrap_method(
        GoalDirectedEvaluator, "answer", "vadalog.magic_answer", samples=True
    )
    tracer.wrap_method(IntensionalMaterializer, "materialize", "ssst.materialize")
    tracer.wrap_method(IntensionalMaterializer, "update", "ssst.update")
    tracer.wrap_function(
        loaders, "load_graph_store", "deploy.load", counter=_loaded
    )
    tracer.wrap_method(delta.FlushDelta, "diff", "deploy.flush_delta_diff",
                       counter=_changes)
    tracer.wrap_method(
        graph_store.GraphStore, "apply_flush_delta", "deploy.target_apply"
    )
    tracer.wrap_method(graph_store.GraphStore, "deploy", "deploy.store_deploy")


def install_stream(tracer: LayerTracer, detail: bool = True) -> None:
    """The stream's region root and, with ``detail``, its own steps:
    parsing, coalescing, the sink's apply, the log and checkpoints."""
    from repro.stream import feed
    from repro.stream.coalesce import DeltaCoalescer
    from repro.stream.log import DeltaLog, StreamCheckpoint
    from repro.stream.pipeline import DeltaStream
    from repro.stream.sinks import MaterializerSink

    tracer.wrap_method(DeltaStream, "run", "stream.run", root=True)
    if not detail:
        return
    tracer.wrap_function(feed, "parse_record", "stream.parse")
    tracer.wrap_method(DeltaCoalescer, "push", "stream.coalesce")
    tracer.wrap_method(DeltaCoalescer, "drain", "stream.coalesce")
    tracer.wrap_method(MaterializerSink, "apply", "stream.sink_apply")
    tracer.wrap_method(DeltaLog, "append", "stream.log_append")
    tracer.wrap_method(DeltaLog, "compact", "stream.log_compact")
    tracer.wrap_method(StreamCheckpoint, "save", "stream.checkpoint")


def install_serve(tracer: LayerTracer, detail: bool = True) -> None:
    """The request root and, with ``detail``, the endpoints under it
    and the state's delta application."""
    from repro.serve.handlers import ServiceHandlers
    from repro.serve.state import ServeState

    tracer.wrap_method(ServiceHandlers, "handle", "serve.handle", root=True)
    if not detail:
        return
    for endpoint in ("query", "neighborhood", "delta"):
        tracer.wrap_method(ServiceHandlers, endpoint, f"serve.{endpoint}")
    tracer.wrap_method(
        ServeState, "apply_delta", "serve.state_apply_delta", samples=True
    )
