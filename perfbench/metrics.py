"""The metrics every run prints, by name and unit.

End-to-end metrics have one meaning per workload (see ``NOTES.md``):
``light`` and ``heavy`` are the workload's two load points — the 1k and
5k registries of ``batch-registry``, the steady feed and the burst of
``stream-cdc``, the low and the high request rate of ``serve-mixed``.
``p50`` is the median of the batch repetitions, the record lags or the
request latencies.  Tails are not end-to-end metrics: on the reference
host they spread past the largest bound allowed (see ``NOTES.md``).
Each run's provenance line holds them, and serve's 95th percentiles
are per-layer metrics of the traced run.  Every end-to-end time is
reported at the reference host's speed (``common.HostSpeed``); the
provenance line holds the speed samples.  Per-layer metrics come from
the traced run, in measured time; ``host.kernel_ms`` is that run's
median speed sample.  A layer a workload does not use reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from common import percentile
from layers import UNATTRIBUTED

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms.light", "ms"),
    ("p50_ms.heavy", "ms"),
)

PER_LAYER = (
    ("graph.bulk_insert_s", "s"),
    ("graph.bulk_rows", "count"),
    ("graph.table_read_s", "s"),
    ("core.to_dictionary_s", "s"),
    ("core.from_dictionary_s", "s"),
    ("core.from_dictionary_calls", "count"),
    ("metalog.graph_to_database_s", "s"),
    ("metalog.facts_extracted", "count"),
    ("vadalog.run_s", "s"),
    ("vadalog.run_calls", "count"),
    ("vadalog.facts_derived", "count"),
    ("vadalog.apply_delta_s", "s"),
    ("vadalog.apply_delta_calls", "count"),
    ("vadalog.delta_facts", "count"),
    ("vadalog.magic_answer_ms_p50", "ms"),
    ("ssst.materialize_self_s", "s"),
    ("ssst.update_self_s", "s"),
    ("deploy.load_s", "s"),
    ("deploy.elements_written", "count"),
    ("deploy.store_deploy_s", "s"),
    ("deploy.flush_delta_diff_s", "s"),
    ("deploy.target_apply_s", "s"),
    ("deploy.flush_changes", "count"),
    ("stream.run_self_s", "s"),
    ("stream.coalesce_s", "s"),
    ("stream.sink_apply_self_s", "s"),
    ("stream.idle_s", "s"),
    ("stream.log_append_s", "s"),
    ("stream.log_appends", "count"),
    ("stream.checkpoint_s", "s"),
    ("stream.checkpoints", "count"),
    ("stream.batches", "count"),
    ("stream.records_per_batch", "count"),
    ("stream.coalesce_ratio", "ratio"),
    ("stream.apply_busy_share", "share"),
    ("stream.queue_wait_p50_s", "s"),
    ("stream.burst_upd_per_s", "1/s"),
    ("serve.handle_self_s", "s"),
    ("serve.query_self_s", "s"),
    ("serve.handle_ms_p50.snapshot", "ms"),
    ("serve.handle_ms_p50.magic", "ms"),
    ("serve.handle_ms_p50.neighborhood", "ms"),
    ("serve.handle_ms_p50.delta", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.state_apply_delta_ms_p50", "ms"),
    ("serve.client_magic_ms_p50", "ms"),
    ("serve.client_write_ms_p50", "ms"),
    ("serve.client_p95_ms.light", "ms"),
    ("serve.client_p95_ms.heavy", "ms"),
    ("serve.cache_hit_rate", "share"),
    ("serve.cache_invalidations", "count"),
    ("serve.snapshot_scan_per_answer", "ratio"),
    ("serve.epochs", "count"),
    ("load.late_ms_p99", "ms"),
    ("run.ops_failed_share", "share"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "share"),
    ("trace.overhead", "ratio"),
    ("host.kernel_ms", "ms"),
)


@dataclass
class Outcome:
    """What one workload run measured and whether its output was right.

    ``checks`` are pass/fail conditions beyond the per-operation gate
    (traced and untraced chase agree, self times cover the region);
    ``late_s`` are the load generator's issue delays for open-loop
    workloads; ``note`` goes to the provenance line only.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool] = field(default_factory=dict)
    late_s: list = field(default_factory=list)
    note: dict = field(default_factory=dict)


def render(spec, values: Mapping[str, float]) -> Dict[str, dict]:
    """Every metric of ``spec`` with its unit; absent ones read 0."""
    unknown = set(values) - {name for name, _unit in spec}
    if unknown:
        raise KeyError(f"metrics not in the spec: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in spec
    }


def layer_values(tracer) -> Dict[str, float]:
    """Per-layer metrics readable from a :class:`LayerTracer` alone."""
    t = tracer
    magic = t.durations.get("vadalog.magic_answer", [])
    values = {
        "graph.bulk_insert_s": t.seconds("graph.bulk_insert"),
        "graph.bulk_rows": t.count("graph.bulk_insert.rows"),
        "graph.table_read_s": t.seconds("graph.table_read"),
        "core.to_dictionary_s": t.seconds("core.to_dictionary"),
        "core.from_dictionary_s": t.seconds("core.from_dictionary"),
        "core.from_dictionary_calls": t.n_calls("core.from_dictionary"),
        "metalog.graph_to_database_s": t.seconds("metalog.graph_to_database"),
        "metalog.facts_extracted": t.count("metalog.graph_to_database.facts"),
        "vadalog.run_s": t.seconds("vadalog.run"),
        "vadalog.run_calls": t.n_calls("vadalog.run"),
        "vadalog.facts_derived": t.count("vadalog.run.facts_derived"),
        "vadalog.apply_delta_s": t.seconds("vadalog.apply_delta"),
        "vadalog.apply_delta_calls": t.n_calls("vadalog.apply_delta"),
        "vadalog.delta_facts": t.count("vadalog.apply_delta.delta_facts"),
        "vadalog.magic_answer_ms_p50": _p50_ms(magic),
        "ssst.materialize_self_s": t.seconds("ssst.materialize"),
        "ssst.update_self_s": t.seconds("ssst.update"),
        "deploy.load_s": t.seconds("deploy.load"),
        "deploy.elements_written": t.count("deploy.load.elements"),
        "deploy.store_deploy_s": t.seconds("deploy.store_deploy"),
        "deploy.flush_delta_diff_s": t.seconds("deploy.flush_delta_diff"),
        "deploy.target_apply_s": t.seconds("deploy.target_apply"),
        "deploy.flush_changes": t.count("deploy.flush_delta_diff.changes"),
        "stream.run_self_s": t.seconds("stream.run"),
        "stream.coalesce_s": t.seconds("stream.coalesce"),
        "stream.sink_apply_self_s": t.seconds("stream.sink_apply"),
        "stream.idle_s": t.seconds("stream.idle"),
        "stream.log_append_s": t.seconds("stream.log_append"),
        "stream.log_appends": t.n_calls("stream.log_append"),
        "stream.checkpoint_s": t.seconds("stream.checkpoint"),
        "stream.checkpoints": t.n_calls("stream.checkpoint"),
        "serve.handle_self_s": t.seconds("serve.handle"),
        "serve.query_self_s": t.seconds("serve.query"),
        "serve.state_apply_delta_ms_p50": _p50_ms(
            t.durations.get("serve.state_apply_delta", [])
        ),
        "trace.wall_s": t.region_s,
        "trace.unattributed_s": t.layer_self_s().get(UNATTRIBUTED, 0.0),
    }
    values["trace.coverage"] = coverage(t)
    return values


def coverage(tracer) -> float:
    """Share of the traced region's wall time that the wrapped layers'
    self times account for; the region roots' own self times and the
    benchmark's own code count as unattributed."""
    if tracer.region_s <= 0:
        return 0.0
    layers = tracer.layer_self_s()
    attributed = sum(s for layer, s in layers.items() if layer != UNATTRIBUTED)
    return attributed / tracer.region_s


def _p50_ms(durations) -> float:
    return percentile(durations, 50) * 1000.0 if durations else 0.0


def same_executor(reference, traced, outside_only: bool = False) -> bool:
    """The traced pass derived exactly the facts the reference pass did.

    ``outside_only`` compares only the chase calls made outside the
    measured region (a server's start-up materialization), for
    workloads whose in-region interleaving is timing dependent.
    """
    scopes = ("@outside",) if outside_only else ("", "@outside")
    keys = [
        f"vadalog.{call}{scope}.{field}"
        for call, field in (("run", "facts_derived"), ("apply_delta", "delta_facts"))
        for scope in scopes
    ]
    return all(reference.count(key) == traced.count(key) for key in keys)
