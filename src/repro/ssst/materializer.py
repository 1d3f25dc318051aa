"""Intensional-component materialization — Algorithm 2 of the paper.

.. code-block:: none

    Input: instance D of schema S of a model M, an intensional
    component Sigma;  Output: materializes the intensional component.
    1: M      <- select candidate mappings to M from REPO
    2: M(M)   <- prompt for implementation strategy
    3: V(M)   <- MTV.translateToVadalog(M(M).instance)
    4: I      <- Reason(D, V(M)^-1)          (import D into the super-model)
    5: V_I    <- build high-level input views
    6: V_O    <- build high-level output views
    7: V(Sig) <- MTV.translateToVadalog(Sigma u V_I u V_O)
    8: I'     <- Reason(I, V(Sigma))
    9: D      <- Reason(I', V(M))            (materialize into D)

Following the performance note of Section 6 ("we can build the instance
I' incrementally, in a stratified way, by first applying V_I, and
materializing the temporary result as a database instance in a staging
area; then, the standard reasoning process can take place; finally, I'
is stored back"), the three phases run as separate chase invocations and
are timed individually — the load / reason / flush breakdown the paper
reports (~160 min reasoning vs ~15 min load+flush for the Bank of Italy
KG) is reproduced by the E-PERF benchmark on synthetic data.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dictionary import GraphDictionary, dictionary_catalog
from repro.core.instances import SuperInstance
from repro.core.schema import SuperSchema
from repro.deploy.delta import FlushDelta
from repro.errors import EvaluationError, SchemaError
from repro.graph.property_graph import PropertyGraph
from repro.metalog.ast import MetaProgram
from repro.metalog.mtv import compile_metalog, graph_to_database
from repro.obs.governor import STATUS_FIXPOINT, BudgetExceeded
from repro.obs.tracer import NullTracer, Tracer
from repro.ssst.incremental import (
    EncodedConstructs,
    RegistryDelta,
    UpdateReport,
    encode_edge,
    encode_node,
)
from repro.ssst.views import catalog_from_super_schema, input_views, output_views
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats
from repro.vadalog.terms import fact_sort_key

#: Instance-construct labels extracted from the dictionary for phase 1.
_INSTANCE_NODE_LABELS = ("I_SM_Node", "I_SM_Edge", "I_SM_Attribute")
_INSTANCE_EDGE_LABELS = (
    "SM_REFERENCES", "I_SM_FROM", "I_SM_TO",
    "I_SM_HAS_NODE_PROPERTY", "I_SM_HAS_EDGE_PROPERTY",
)


@dataclass
class MaterializationReport:
    """Outcome of one Algorithm 2 run.

    The per-phase timings come from the materializer's tracer spans
    (``materialize.load`` / ``materialize.reason`` / ``materialize.flush``)
    — the report keeps its flat ``*_seconds`` fields for callers, but the
    spans are the source of truth and land in any exported trace.
    ``status``/``violation`` carry the first budget trip from any of the
    three chase invocations, so a governed run can be recognized as
    truncated no matter which phase hit the limit.
    """

    instance: SuperInstance  # the enriched instance (derived parts included)
    derived_counts: Dict[str, int] = field(default_factory=dict)
    load_seconds: float = 0.0
    reason_seconds: float = 0.0
    flush_seconds: float = 0.0
    reason_stats: Optional[EvaluationStats] = None
    status: str = STATUS_FIXPOINT
    violation: Optional[BudgetExceeded] = None
    #: Derived I_SM_* edges dropped at flush because an endpoint never
    #: made it into the dictionary graph (a lossy program, not a bug in
    #: the flush) — surfaced instead of silently discarded.
    flush_dropped_edges: int = 0
    #: Name of the checkpointed phase this run resumed from, if any.
    resumed_from: Optional[str] = None

    @property
    def truncated(self) -> bool:
        return self.status != STATUS_FIXPOINT

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.reason_seconds + self.flush_seconds

    def phase_breakdown(self) -> Dict[str, float]:
        return {
            "load": self.load_seconds,
            "reason": self.reason_seconds,
            "flush": self.flush_seconds,
        }


@dataclass
class _CompiledViews:
    """One MTV compilation: the translated program plus both view sets.

    Cached per (program text, schema identity, instance OID) — repeated
    ``materialize()``/``update()`` calls over the same inputs skip the
    MetaLog-to-Vadalog translation and the view synthesis entirely.  The
    entry keeps a strong reference to the schema so the identity key can
    never alias a collected object.
    """

    schema: SuperSchema
    sigma_catalog: Any
    compiled: Any
    v_in: Any
    v_out: Any


@dataclass
class RetainedMaterialization:
    """Everything ``update()`` needs to maintain a materialization.

    Built by ``materialize(..., retain=True)``: the three chase results
    (each carrying a retained
    :class:`~repro.vadalog.incremental.MaterializedState`), the source
    and dictionary graphs they were loaded from, and the current
    enriched plain graph (for computing deploy-level flush deltas).
    """

    schema: SuperSchema
    sigma: MetaProgram
    instance_oid: Any
    data: PropertyGraph
    dictionary: GraphDictionary
    result_load: EvaluationResult
    result_reason: EvaluationResult
    result_flush: EvaluationResult
    enriched: PropertyGraph
    updates_applied: int = 0


#: Compile-cache entries kept per materializer (oldest evicted first).
_COMPILE_CACHE_LIMIT = 8


@contextmanager
def _deferred_full_gc():
    """Defer full (gen-2) garbage collections for a registry-scale run.

    A from-scratch materialization allocates millions of long-lived
    containers (the dictionary graph, the chase extension); with the
    default thresholds CPython re-scans that whole heap every few
    thousand surviving allocations, which measures as multiple seconds
    of pause time per 50k-company run.  Almost everything the chase
    frees is acyclic and dies by refcount, so full cycles are deferred
    — not disabled — while young-generation collection keeps running.
    One full collection on exit picks up whatever cyclic garbage the
    run produced; thresholds are always restored.
    """
    if not gc.isenabled():  # caller manages GC — stay out of the way
        yield
        return
    gen0, gen1, gen2 = gc.get_threshold()
    gc.set_threshold(gen0, gen1, max(gen2, 1) * 50)
    try:
        yield
    finally:
        gc.set_threshold(gen0, gen1, gen2)
        gc.collect()


class IntensionalMaterializer:
    """Runs Algorithm 2 over a super-schema instance."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        tracer: Optional[Tracer] = None,
    ):
        # A caller-supplied engine keeps its own tracer; an implicit one
        # joins the materializer's trace so engine spans nest under the
        # phase spans.
        self.tracer = tracer or NullTracer()
        self.engine = engine or Engine(tracer=tracer)
        self._compile_cache: Dict[Tuple[str, int, Any], _CompiledViews] = {}
        self._retained: Optional[RetainedMaterialization] = None

    @property
    def retained(self) -> Optional[RetainedMaterialization]:
        """The state kept by the last ``materialize(..., retain=True)``."""
        return self._retained

    def _compiled_views(
        self, schema: SuperSchema, sigma: MetaProgram, instance_oid: Any
    ) -> _CompiledViews:
        """MTV compilation + view synthesis, memoized.

        The key uses the program's text and the schema's object identity:
        re-parsing either yields a fresh object and a clean miss, while
        repeated calls with the same objects (the update loop, benchmark
        reruns) hit.  A mutated-in-place schema under the same identity
        is the caller's responsibility, as everywhere else in the SSST.
        """
        key = (str(sigma), id(schema), instance_oid)
        entry = self._compile_cache.get(key)
        if entry is not None and entry.schema is schema:
            return entry
        schema.ensure_attribute_oids()
        sigma_catalog = catalog_from_super_schema(schema)
        compiled = compile_metalog(sigma, sigma_catalog)
        v_in = input_views(
            schema,
            compiled.input_node_labels,
            compiled.input_edge_labels,
            instance_oid,
            sigma_catalog,
        )
        v_out = output_views(
            schema,
            compiled.derived_node_labels,
            compiled.derived_edge_labels,
            instance_oid,
            sigma_catalog,
        )
        entry = _CompiledViews(schema, sigma_catalog, compiled, v_in, v_out)
        while len(self._compile_cache) >= _COMPILE_CACHE_LIMIT:
            self._compile_cache.pop(next(iter(self._compile_cache)))
        self._compile_cache[key] = entry
        return entry

    @_deferred_full_gc()
    def materialize(
        self,
        schema: SuperSchema,
        data: PropertyGraph,
        sigma: MetaProgram,
        instance_oid: Any = 1,
        dictionary: Optional[GraphDictionary] = None,
        strict: bool = False,
        checkpoint=None,
        retain: bool = False,
        track_support: bool = False,
    ) -> MaterializationReport:
        """Materialize the intensional component ``sigma`` over ``data``.

        ``data`` is a plain typed property graph conforming to
        ``schema`` (node labels are type names).  The result's
        ``instance`` holds the enriched plain graph, including the
        derived nodes and edges.

        ``checkpoint`` (a
        :class:`~repro.ssst.checkpoint.MaterializationCheckpoint`)
        persists each phase that reaches fixpoint; passing the same
        checkpoint again resumes from the last completed phase instead
        of repeating it.  A checkpoint written for different inputs is
        discarded, not resumed.

        ``retain=True`` keeps the three chase states alive so later
        registry changes can be applied with :meth:`update` instead of
        re-running from scratch; ``track_support=True`` additionally
        records bounded support sets during the reason phase, making
        deletions cheaper at ~2x fact memory (both off by default — the
        from-scratch path pays nothing).
        """
        report = MaterializationReport(instance=None)  # filled below
        tracer = self.tracer
        retain = retain or track_support

        resume_from: Optional[str] = None
        if checkpoint is not None:
            from repro.ssst.checkpoint import run_fingerprint

            checkpoint.begin(run_fingerprint(schema, data, sigma, instance_oid))
            resume_from = checkpoint.resume_phase()

        # ---------------- Phase 1: LOAD (lines 1-4) ----------------
        with tracer.span("materialize.load") as load_span:
            if dictionary is None:
                dictionary = GraphDictionary()

            # Lines 3, 5-6: MTV compilation and the views, memoized per
            # (program text, schema, instance OID) — the update loop and
            # repeated runs skip the translation entirely.
            views = self._compiled_views(schema, sigma, instance_oid)
            compiled, v_in, v_out = views.compiled, views.v_in, views.v_out

            if resume_from is not None:
                if retain:
                    raise EvaluationError(
                        "retain=True cannot resume from a checkpoint: the "
                        "skipped phases leave no state to maintain — rerun "
                        "without --resume or without retain"
                    )
                staged_db, dictionary.graph, phase_meta = checkpoint.load_phase(
                    resume_from
                )
                dictionary.register(schema)
                report.resumed_from = resume_from
                load_span.set(resumed=True, phase=resume_from)
                tracer.count("deploy.replay_skipped", 1)
            else:
                if schema.schema_oid not in dictionary.schema_oids():
                    dictionary.store(schema)
                instance = SuperInstance.from_plain_graph(
                    schema, data, instance_oid, strict=strict
                )
                instance.to_dictionary(dictionary.graph)
                staging = graph_to_database(
                    dictionary.graph,
                    dictionary_catalog(),
                    node_labels=_INSTANCE_NODE_LABELS,
                    edge_labels=_INSTANCE_EDGE_LABELS,
                    columnar=self.engine.columnar,
                )
                # Materialize V_I into the staging area (Section 6
                # optimization).
                # The staging database is materializer-owned: let
                # every phase evaluate in place instead of copying the
                # full extension per run.  With ``retain=True`` the
                # three phase results must stay distinct snapshots (the
                # delta-chase baselines), so copies are kept.
                result_in = self.engine.run(
                    v_in, database=staging, retain_state=retain,
                    copy_database=retain,
                )
                self._merge_status(report, result_in)
                staged_db = result_in.database
                if checkpoint is not None and not report.truncated:
                    checkpoint.save_phase(
                        "load", database=staged_db, graph=dictionary.graph
                    )
        report.load_seconds = load_span.duration

        # ---------------- Phase 2: REASON (lines 7-8) ----------------
        with tracer.span("materialize.reason") as reason_span:
            if resume_from == "reason":
                report.derived_counts = dict(phase_meta.get("derived_counts", {}))
                result_db = staged_db
                reason_span.set(resumed=True)
                tracer.count("deploy.replay_skipped", 1)
            else:
                before = {
                    label: staged_db.count(label)
                    for label in sorted(
                        compiled.derived_node_labels | compiled.derived_edge_labels
                    )
                }
                result_sigma = self.engine.run(
                    compiled.program, database=staged_db,
                    retain_state=retain, track_support=track_support,
                    copy_database=retain,
                )
                report.reason_stats = result_sigma.stats
                self._merge_status(report, result_sigma)
                report.derived_counts = {
                    label: result_sigma.database.count(label) - before.get(label, 0)
                    for label in before
                }
                reason_span.set(
                    status=result_sigma.status,
                    facts_derived=result_sigma.stats.facts_derived,
                )
                result_db = result_sigma.database
                if checkpoint is not None and not report.truncated:
                    checkpoint.save_phase(
                        "reason",
                        database=result_db,
                        graph=dictionary.graph,
                        meta={"derived_counts": report.derived_counts},
                    )
        report.reason_seconds = reason_span.duration

        # ---------------- Phase 3: FLUSH (line 9) ----------------
        # Never checkpointed: flushing is idempotent (existing OIDs are
        # skipped), so re-running it always yields a complete store.
        with tracer.span("materialize.flush") as flush_span:
            result_out = self.engine.run(
                v_out, database=result_db, retain_state=retain,
                copy_database=retain,
            )
            self._merge_status(report, result_out)
            added, dropped = _flush_instance_facts(
                result_out.database, dictionary.graph
            )
            report.flush_dropped_edges = dropped
            flush_span.set(added=added, dropped_edges=dropped)
            report.instance = SuperInstance.from_dictionary(
                dictionary.graph, schema, instance_oid, name=f"{data.name}+derived"
            )
        report.flush_seconds = flush_span.duration
        if retain:
            # A budget-tripped run discards its engine state; there is
            # nothing consistent to maintain, so retention is dropped.
            self._retained = None
            if not report.truncated:
                self._retained = RetainedMaterialization(
                    schema=schema,
                    sigma=sigma,
                    instance_oid=instance_oid,
                    data=data,
                    dictionary=dictionary,
                    result_load=result_in,
                    result_reason=result_sigma,
                    result_flush=result_out,
                    enriched=report.instance.data,
                )
        return report

    # ------------------------------------------------------------------
    # Incremental maintenance (delta-chase instead of re-running Alg. 2)
    # ------------------------------------------------------------------
    def update(self, delta: RegistryDelta) -> UpdateReport:
        """Apply a registry delta to a retained materialization.

        Requires a prior ``materialize(..., retain=True)``.  The plain
        data graph and the dictionary graph are mutated in place; the
        three retained chase states are maintained with
        :meth:`~repro.vadalog.engine.Engine.apply_delta` (each state's
        net changes feed the next, exactly as the full phases chain);
        finally only the *changed* ``I_SM_*`` facts are flushed into the
        dictionary graph.  The returned report carries the refreshed
        enriched instance plus a
        :class:`~repro.deploy.delta.FlushDelta` for bringing deployed
        stores up to date without a reload.

        The result is fact-set-identical (up to labeled-null renaming)
        to re-running :meth:`materialize` from scratch on the mutated
        registry — the differential tests pin this down; strata the
        safety analysis cannot maintain incrementally are recomputed
        from their boundary, never approximated.
        """
        retained = self._retained
        if retained is None:
            raise EvaluationError(
                "update() needs a prior materialize(..., retain=True)"
            )
        start = perf_counter()
        tracer = self.tracer
        with tracer.span(
            "materialize.update",
            added=len(delta.add_nodes) + len(delta.add_edges),
            removed=len(delta.remove_nodes) + len(delta.remove_edges),
        ) as span:
            schema = retained.schema
            data = retained.data
            ioid = retained.instance_oid
            graph = retained.dictionary.graph

            removed_nodes, removed_edges = self._resolve_removals(data, delta)
            self._validate_additions(
                data,
                delta,
                {r[0] for r in removed_nodes},
                {r[0] for r in removed_edges},
            )

            # Encode both sides as the I_SM_* facts the load phase would
            # have produced (the OIDs are deterministic functions of the
            # element ids, so no chase run is needed to compute them).
            removal = EncodedConstructs()
            for record in removed_edges:
                removal.merge(encode_edge(schema, ioid, *record))
            for record in removed_nodes:
                removal.merge(encode_node(schema, ioid, *record))
            addition = EncodedConstructs()
            for record in delta.add_nodes:
                addition.merge(encode_node(schema, ioid, *record))
            for record in delta.add_edges:
                addition.merge(encode_edge(schema, ioid, *record))

            # Mutate the registry graph (edges first: node removal would
            # cascade them) and the dictionary's base constructs.
            for edge_id, *_rest in removed_edges:
                data.remove_edge(edge_id)
            for node_id, *_rest in removed_nodes:
                data.remove_node(node_id)
            for node_id, type_name, properties in delta.add_nodes:
                data.add_node(node_id, type_name, **properties)
            for edge_id, source, target, type_name, properties in delta.add_edges:
                data.add_edge(
                    source, target, type_name, edge_id=edge_id, **properties
                )
            for edge_id, *_rest in removal.graph_edges:
                if graph.has_edge(edge_id):
                    graph.remove_edge(edge_id)
            for oid, *_rest in removal.graph_nodes:
                if graph.has_node(oid):
                    graph.remove_node(oid)
            for oid, label, properties in addition.graph_nodes:
                if not graph.has_node(oid):
                    graph.add_node(oid, label, **properties)
            for edge_id, source, target, label, properties in addition.graph_edges:
                if not graph.has_edge(edge_id):
                    graph.add_edge(
                        source, target, label, edge_id=edge_id, **properties
                    )

            # Chase maintenance: each state's net changes are the next
            # state's extensional delta (load -> reason -> flush views).
            engine = self.engine
            delta_load = engine.apply_delta(
                retained.result_load,
                added=addition.facts, removed=removal.facts,
            )
            delta_reason = engine.apply_delta(
                retained.result_reason,
                added=delta_load.added, removed=delta_load.removed,
            )
            delta_flush = engine.apply_delta(
                retained.result_flush,
                added=delta_reason.added, removed=delta_reason.removed,
            )

            flushed, dropped = self._flush_delta_facts(delta_flush, graph)
            tracer.count("incr.flushed_delta", flushed)

            instance = SuperInstance.from_dictionary(
                graph, schema, ioid, name=f"{data.name}+derived"
            )
            flush_delta = FlushDelta.diff(retained.enriched, instance.data)
            retained.enriched = instance.data
            retained.updates_applied += 1
            engine_seconds = (
                delta_load.elapsed_seconds
                + delta_reason.elapsed_seconds
                + delta_flush.elapsed_seconds
            )
            span.set(
                flushed=flushed,
                dropped_edges=dropped,
                strata_recomputed=(
                    delta_load.strata_recomputed
                    + delta_reason.strata_recomputed
                    + delta_flush.strata_recomputed
                ),
            )
        return UpdateReport(
            instance=instance,
            delta_load=delta_load,
            delta_reason=delta_reason,
            delta_flush=delta_flush,
            flush_delta=flush_delta,
            flushed=flushed,
            flush_dropped_edges=dropped,
            engine_seconds=engine_seconds,
            update_seconds=perf_counter() - start,
        )

    @staticmethod
    def _resolve_removals(
        data: PropertyGraph, delta: RegistryDelta
    ) -> "Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]":
        """Full records of every element the delta removes.

        Removing a node implies removing its incident edges (the
        registry cannot hold dangling stakes), so those are folded in.
        Records capture the *current* labels and properties — the same
        values the load phase encoded — before anything is mutated.
        """
        edge_ids: List[Any] = []
        seen: set = set()
        for edge_id in delta.remove_edges:
            if not data.has_edge(edge_id):
                raise SchemaError(f"cannot remove unknown edge {edge_id!r}")
            if edge_id not in seen:
                seen.add(edge_id)
                edge_ids.append(edge_id)
        node_ids: List[Any] = []
        for node_id in delta.remove_nodes:
            if not data.has_node(node_id):
                raise SchemaError(f"cannot remove unknown node {node_id!r}")
            if node_id in set(node_ids):
                continue
            node_ids.append(node_id)
            for edge in list(data.out_edges(node_id)) + list(data.in_edges(node_id)):
                if edge.id not in seen:
                    seen.add(edge.id)
                    edge_ids.append(edge.id)
        removed_edges = []
        for edge_id in edge_ids:
            edge = data.edge(edge_id)
            removed_edges.append(
                (edge.id, edge.source, edge.target, edge.label,
                 dict(edge.properties))
            )
        removed_nodes = []
        for node_id in node_ids:
            node = data.node(node_id)
            removed_nodes.append((node.id, node.label, dict(node.properties)))
        return removed_nodes, removed_edges

    @staticmethod
    def _validate_additions(
        data: PropertyGraph,
        delta: RegistryDelta,
        removed_node_ids: set,
        removed_edge_ids: Optional[set] = None,
    ) -> None:
        added_node_ids = {record[0] for record in delta.add_nodes}
        removed_edge_ids = removed_edge_ids or set()
        for node_id, _type_name, _properties in delta.add_nodes:
            if data.has_node(node_id) and node_id not in removed_node_ids:
                raise SchemaError(
                    f"cannot add node {node_id!r}: it already exists "
                    "(remove it in the same delta to replace it)"
                )
        for edge_id, source, target, _type_name, _properties in delta.add_edges:
            if data.has_edge(edge_id) and edge_id not in removed_edge_ids:
                raise SchemaError(
                    f"cannot add edge {edge_id!r}: it already exists "
                    "(remove it in the same delta to replace it)"
                )
            for endpoint in (source, target):
                present = (
                    data.has_node(endpoint) and endpoint not in removed_node_ids
                ) or endpoint in added_node_ids
                if not present:
                    raise SchemaError(
                        f"edge {edge_id!r} references missing node "
                        f"{endpoint!r}"
                    )

    @staticmethod
    def _flush_delta_facts(delta_flush, graph: PropertyGraph) -> "Tuple[int, int]":
        """Apply the flush-state's net I_SM_* changes to the dictionary
        graph — the incremental counterpart of ``_flush_instance_facts``,
        touching only what changed.  Returns ``(flushed, dropped)``."""
        flushed = 0
        dropped = 0
        for label in _INSTANCE_EDGE_LABELS:
            for fact in delta_flush.removed.get(label, ()):
                if graph.has_edge(fact[0]):
                    graph.remove_edge(fact[0])
                    flushed += 1
        for label in _INSTANCE_NODE_LABELS:
            for fact in delta_flush.removed.get(label, ()):
                if graph.has_node(fact[0]):
                    graph.remove_node(fact[0])
                    flushed += 1
        for label in _INSTANCE_NODE_LABELS:
            for fact in sorted(
                delta_flush.added.get(label, ()), key=fact_sort_key
            ):
                oid, inst, third = fact
                if graph.has_node(oid):
                    continue
                properties: Dict[str, Any] = {"instanceOID": inst}
                if label == "I_SM_Attribute":
                    properties["value"] = third
                elif third is not None:
                    properties["sourceOID"] = third
                graph.add_node(oid, label, **properties)
                flushed += 1
        for label in _INSTANCE_EDGE_LABELS:
            for fact in sorted(
                delta_flush.added.get(label, ()), key=fact_sort_key
            ):
                oid, source, target, inst = fact
                if graph.has_edge(oid):
                    continue
                if not graph.has_node(source) or not graph.has_node(target):
                    dropped += 1
                    continue
                graph.add_edge(
                    source, target, label, edge_id=oid, instanceOID=inst
                )
                flushed += 1
        return flushed, dropped

    @staticmethod
    def _merge_status(report: MaterializationReport, result) -> None:
        """Fold one phase's engine status into the report (first trip wins)."""
        if result.status != STATUS_FIXPOINT and not report.truncated:
            report.status = result.status
            report.violation = result.violation


def _flush_instance_facts(
    database: Database, graph: PropertyGraph, bulk: bool = True
) -> "tuple[int, int]":
    """Write new I_SM_* facts back into the dictionary graph.

    Facts whose OID already exists in the graph are the ones loaded in
    phase 1 and are skipped; only derived instance constructs are added,
    in :func:`~repro.vadalog.terms.fact_sort_key` order so the flush is
    deterministic across processes.  ``bulk=True`` (the default) writes
    each label's fresh constructs through the column-wise
    ``add_nodes_bulk`` / ``add_edges_bulk`` graph accessors; the
    per-object path is kept as a differential oracle.

    Returns ``(added, dropped)``: the number of new graph elements and
    the number of derived edges dropped because an endpoint OID is
    absent from the graph (output views referencing constructs the
    program never materialized) — callers surface the latter instead of
    losing facts silently.
    """
    added = 0
    dropped = 0
    if not bulk:
        for label in _INSTANCE_NODE_LABELS:
            for fact in sorted(database.facts(label), key=fact_sort_key):
                oid, inst, third = fact
                if graph.has_node(oid):
                    continue
                properties: Dict[str, Any] = {"instanceOID": inst}
                if label == "I_SM_Attribute":
                    properties["value"] = third
                elif third is not None:
                    properties["sourceOID"] = third
                graph.add_node(oid, label, **properties)
                added += 1
        for label in _INSTANCE_EDGE_LABELS:
            for fact in sorted(database.facts(label), key=fact_sort_key):
                oid, source, target, inst = fact
                if graph.has_edge(oid):
                    continue
                if not graph.has_node(source) or not graph.has_node(target):
                    dropped += 1
                    continue
                graph.add_edge(
                    source, target, label, edge_id=oid, instanceOID=inst
                )
                added += 1
        return added, dropped

    # Most facts were loaded in phase 1 and already exist in the graph:
    # drop them *before* sorting so the deterministic order is paid only
    # for the fresh tail, not the full extension.  Reading decoded
    # *columns* instead of fact tuples keeps the existing-OID filter on
    # one column; per-fact tuples are built for the fresh tail only.
    for label in _INSTANCE_NODE_LABELS:
        cols = database.columns(label)
        if cols is None:
            continue
        ids, insts, thirds = cols
        existing = graph.existing_node_ids(ids)
        by_oid: Dict[Any, Any] = {}
        for row, oid in enumerate(ids):
            if oid in existing:
                continue
            fact = (oid, insts[row], thirds[row])
            prev = by_oid.get(oid)
            if prev is None or fact_sort_key(fact) < fact_sort_key(prev):
                # Duplicate OIDs are rare; the sort-first fact wins,
                # exactly as in the sequential sorted loop.
                by_oid[oid] = fact
        if not by_oid:
            continue
        fresh = sorted(by_oid.values(), key=fact_sort_key)
        columns = list(zip(*fresh))
        if label == "I_SM_Attribute":
            graph.add_nodes_bulk(
                label,
                list(columns[0]),
                ("instanceOID", "value"),
                [list(columns[1]), list(columns[2])],
                keep_none=True,
            )
        else:
            graph.add_nodes_bulk(
                label,
                list(columns[0]),
                ("instanceOID", "sourceOID"),
                [list(columns[1]), list(columns[2])],
            )
        added += len(fresh)
    for label in _INSTANCE_EDGE_LABELS:
        cols = database.columns(label)
        if cols is None:
            continue
        ids, sources_col, targets_col, insts = cols
        existing = graph.existing_edge_ids(ids)
        candidates: Dict[Any, List[Any]] = {}
        for row, oid in enumerate(ids):
            if oid in existing:
                continue
            fact = (oid, sources_col[row], targets_col[row], insts[row])
            candidates.setdefault(oid, []).append(fact)
        fresh = []
        leftovers = []
        for cands in candidates.values():
            if len(cands) > 1:
                # Same OID more than once: the sort-first fact wins; the
                # rest are only addable if the winner is dropped as
                # dangling — retried below, in order.
                cands.sort(key=fact_sort_key)
                leftovers.extend(cands[1:])
            fresh.append(cands[0])
        fresh.sort(key=fact_sort_key)
        leftovers.sort(key=fact_sort_key)
        endpoints = {fact[1] for fact in fresh}
        endpoints.update(fact[2] for fact in fresh)
        present = graph.existing_node_ids(endpoints)
        if len(present) != len(endpoints):
            kept = [
                fact for fact in fresh
                if fact[1] in present and fact[2] in present
            ]
            dropped += len(fresh) - len(kept)
            fresh = kept
        if fresh:
            columns = list(zip(*fresh))
            graph.add_edges_bulk(
                label,
                list(columns[0]),
                list(columns[1]),
                list(columns[2]),
                ("instanceOID",),
                [list(columns[3])],
            )
            added += len(fresh)
        for fact in leftovers:
            oid, source, target, inst = fact
            if graph.has_edge(oid):
                continue
            if not graph.has_node(source) or not graph.has_node(target):
                dropped += 1
                continue
            graph.add_edge(source, target, label, edge_id=oid, instanceOID=inst)
            added += 1
    return added, dropped
