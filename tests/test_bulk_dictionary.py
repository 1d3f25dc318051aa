"""Bulk (column-wise) graph/dictionary boundary: differential tests.

The columnar fast path moves ``graph_to_database`` /
``materialize_into_graph`` and the ``to_dictionary`` encoders onto the
bulk graph accessors (``nodes_table`` / ``add_nodes_bulk`` and friends).
Every test here pins the bulk path against the per-object oracle
(``bulk=False``) or against previously observed sequential semantics:
same facts, same graphs, same deterministic order.
"""

import random

import pytest

from repro.core import GraphDictionary, SuperSchema
from repro.core.instances import SuperInstance
from repro.core.oid import construct_oid
from repro.finkg.generator import ShareholdingConfig, generate_shareholding_data
from repro.graph.property_graph import ABSENT, GraphError, PropertyGraph
from repro.metalog import (
    GraphCatalog,
    compile_metalog,
    graph_to_database,
    parse_metalog,
)
from repro.metalog.mtv import materialize_into_graph
from repro.ssst.materializer import _flush_instance_facts
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine


def node_snapshot(graph):
    return sorted(
        (str(n.id), n.label, tuple(sorted(n.properties.items())))
        for n in graph.nodes()
    )


def edge_snapshot(graph):
    return sorted(
        (str(e.id), str(e.source), str(e.target), e.label,
         tuple(sorted(e.properties.items())))
        for e in graph.edges()
    )


def big_mixed_graph(nodes=10_000, seed=99):
    """~10k nodes over three labels with patchy properties, plus edges."""
    rng = random.Random(seed)
    graph = PropertyGraph("big")
    labels = ("Alpha", "Beta", "Gamma")
    for i in range(nodes):
        label = labels[i % 3]
        properties = {"k": i}
        if rng.random() < 0.7:
            properties["name"] = f"n{i}"
        if rng.random() < 0.3:
            properties["score"] = rng.random()
        graph.add_node(i, label, **properties)
    for j in range(nodes * 2):
        source, target = rng.randrange(nodes), rng.randrange(nodes)
        properties = {}
        if rng.random() < 0.5:
            properties["weight"] = rng.random()
        graph.add_edge(source, target, "LINK", edge_id=f"e{j}", **properties)
    return graph


class TestGraphBulkAccessors:
    def test_nodes_table_round_trip(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "P", x=1, y="a")
        graph.add_node(2, "P", x=2)
        ids, columns = graph.nodes_table("P", ("x", "y"))
        assert ids == [1, 2]
        assert columns == [[1, 2], ["a", None]]

    def test_absent_sentinel_distinguishes_missing_from_none(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "P", x=None)
        graph.add_node(2, "P")
        ids, (xs,) = graph.nodes_table("P", ("x",), default=ABSENT)
        assert xs[0] is None and xs[1] is ABSENT

    def test_add_nodes_bulk_equals_per_object(self):
        bulk, seq = PropertyGraph("b"), PropertyGraph("s")
        bulk.add_nodes_bulk(
            "P", [1, 2], ("x", "y"), [[1, None], ["a", "b"]],
            constants={"tag": "t"},
        )
        seq.add_node(1, "P", x=1, y="a", tag="t")
        seq.add_node(2, "P", y="b", tag="t")  # None x dropped
        assert node_snapshot(bulk) == node_snapshot(seq)

    def test_add_nodes_bulk_duplicate_is_atomic(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "P")
        with pytest.raises(GraphError):
            graph.add_nodes_bulk("P", [2, 1], (), [])
        assert not graph.has_node(2)  # nothing partially applied

    def test_add_edges_bulk_checks_endpoints(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "P")
        with pytest.raises(GraphError):
            graph.add_edges_bulk("R", ["e"], [1], [999])

    def test_existing_ids(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "P")
        graph.add_edge(1, 1, "R", edge_id="e")
        assert graph.existing_node_ids([1, 2]) == {1}
        assert graph.existing_edge_ids(["e", "f"]) == {"e"}


class TestBulkExtraction:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_bulk_extraction_bit_identical_10k(self, columnar):
        graph = big_mixed_graph()
        catalog = GraphCatalog.from_graph(graph)
        fast = graph_to_database(graph, catalog, columnar=columnar, bulk=True)
        slow = graph_to_database(graph, catalog, columnar=columnar, bulk=False)
        assert fast.predicates() == slow.predicates()
        for predicate in fast.predicates():
            assert list(fast.relation(predicate)) == list(
                slow.relation(predicate)
            ), predicate

    def test_extraction_order_is_stable(self):
        """Label iteration is sorted, so two graphs holding the same data
        built with different label-registration order extract the same
        relation order."""
        first, second = PropertyGraph("a"), PropertyGraph("b")
        first.add_node(1, "Zeta", k=1)
        first.add_node(2, "Alpha", k=2)
        second.add_node(2, "Alpha", k=2)
        second.add_node(1, "Zeta", k=1)
        catalog = GraphCatalog()
        catalog.extend_node("Zeta", ["k"])
        catalog.extend_node("Alpha", ["k"])
        db1 = graph_to_database(first, catalog)
        db2 = graph_to_database(second, catalog)
        assert db1.predicates() == db2.predicates()
        assert db1.predicates() == sorted(db1.predicates())


class TestBulkMaterialize:
    def _run(self, graph, text, bulk):
        catalog = GraphCatalog.from_graph(graph)
        compiled = compile_metalog(parse_metalog(text), catalog)
        database = graph_to_database(
            graph, compiled.catalog,
            node_labels=compiled.input_node_labels,
            edge_labels=compiled.input_edge_labels,
        )
        result = Engine().run(compiled.program, database=database)
        target = graph.copy()
        counts = materialize_into_graph(result, compiled, target, bulk=bulk)
        return target, counts

    def test_bulk_matches_per_object_on_derivations(self):
        graph = PropertyGraph("own")
        for business in "abcd":
            graph.add_node(business, "Business", name=business)
        for source, target, pct in [
            ("a", "b", 0.6), ("b", "c", 0.7), ("a", "c", 0.2), ("c", "d", 0.9),
        ]:
            graph.add_edge(source, target, "OWNS", percentage=pct)
        text = (
            "(x: Business)[:OWNS; percentage: w](y: Business), w > 0.5"
            " -> exists c : (x)[c: CONTROLS](y)."
        )
        fast, fast_counts = self._run(graph, text, bulk=True)
        slow, slow_counts = self._run(graph, text, bulk=False)
        assert fast_counts == slow_counts
        assert node_snapshot(fast) == node_snapshot(slow)
        assert edge_snapshot(fast) == edge_snapshot(slow)
        assert fast_counts[1] == 3  # a->b, b->c, c->d

    def test_derived_none_clears_stale_property(self):
        """Regression: an update deriving ``None`` for a head-mentioned
        property must clear the stale stored value, not silently keep it."""
        graph = PropertyGraph("g")
        graph.add_node(1, "P", flag="stale", src=7)
        graph.add_node(2, "P", flag="stale")  # src missing -> extracts None
        # Head label differs from the body label so the rule does not
        # re-fire on its own output (updates target the same OIDs).
        text = "(x: P; src: s) -> (x: Derived; flag: s)."
        target, _ = self._run(graph, text, bulk=True)
        assert target.node(1).get("flag") == 7
        assert "flag" not in target.node(2).properties
        oracle, _ = self._run(graph, text, bulk=False)
        assert node_snapshot(target) == node_snapshot(oracle)

    def test_absent_head_property_not_cleared(self):
        """Properties the head never mentions stay untouched even though
        the derived fact carries ``None`` at their position."""
        graph = PropertyGraph("g")
        graph.add_node(1, "P", src=1, keepme="yes")
        text = "(x: P; src: s) -> (x: P; src: s)."
        target, _ = self._run(graph, text, bulk=True)
        assert target.node(1).get("keepme") == "yes"


def business_registry(companies, seed=42):
    """The flat ``Business``/``PhysicalPerson`` shareholding registry of
    ``benchmarks/bench_incremental.py``, rebuilt here so the test does
    not import a benchmark script."""
    data = generate_shareholding_data(
        ShareholdingConfig(companies=companies, seed=seed)
    )
    graph = PropertyGraph("registry")
    for pid in data.persons:
        graph.add_node(pid, "PhysicalPerson", fiscalCode=f"FC-{pid}")
    for cid in data.companies:
        graph.add_node(
            cid, "Business", fiscalCode=f"FC-{cid}", businessName=f"{cid} SpA"
        )
    for index, stake in enumerate(data.stakes):
        graph.add_edge(
            stake.owner, stake.company, "OWNS",
            edge_id=f"stake-{index}", percentage=stake.percentage,
        )
    return graph


def ordered_snapshot(graph):
    """Nodes and edges in iteration order (order-sensitive, unlike
    :func:`node_snapshot`)."""
    return (
        [(n.id, n.label, sorted(n.properties.items(), key=repr))
         for n in graph.nodes()],
        [(e.id, e.source, e.target, e.label,
          sorted(e.properties.items(), key=repr))
         for e in graph.edges()],
    )


class TestGraphBoundaryDifferential:
    """Bulk vs per-object graph boundary on a 400-company registry under
    the ``msum`` control program: extraction must be bit-identical in
    content *and order*, and the write-back must produce the same graph
    in the same iteration order."""

    CONTROL = (
        "(x: Business)[:OWNS; percentage: w](y: Business),"
        " v = msum(w, <x>), v > 0.5"
        " -> exists c : (x)[c: CONTROLS](y)."
    )

    @pytest.mark.parametrize("columnar", [False, True])
    def test_bulk_matches_per_object_end_to_end(self, columnar):
        graph = business_registry(400)
        catalog = GraphCatalog.from_graph(graph)
        compiled = compile_metalog(parse_metalog(self.CONTROL), catalog)
        fast = graph_to_database(
            graph, compiled.catalog, columnar=columnar, bulk=True
        )
        slow = graph_to_database(
            graph, compiled.catalog, columnar=columnar, bulk=False
        )
        assert fast.predicates() == slow.predicates()
        for predicate in fast.predicates():
            assert list(fast.relation(predicate)) == list(
                slow.relation(predicate)
            ), predicate

        result = Engine().run(compiled.program, database=fast)
        targets = []
        for bulk in (True, False):
            target = graph.copy()
            materialize_into_graph(result, compiled, target, bulk=bulk)
            targets.append(target)
        fast_graph, slow_graph = targets
        assert ordered_snapshot(fast_graph) == ordered_snapshot(slow_graph)
        # Non-vacuous: the write-back added CONTROLS edges.
        assert fast_graph.edge_count > graph.edge_count


class TestBulkSchemaDictionary:
    def test_schema_bulk_matches_per_object(self, company_schema):
        fast = company_schema.to_dictionary(PropertyGraph("f"), bulk=True)
        slow = company_schema.to_dictionary(PropertyGraph("s"), bulk=False)
        assert node_snapshot(fast) == node_snapshot(slow)
        assert edge_snapshot(fast) == edge_snapshot(slow)

    def test_round_trip_preserves_modifiers(self, company_schema):
        graph = company_schema.to_dictionary(PropertyGraph("d"), bulk=True)
        loaded = SuperSchema.from_dictionary(
            graph, company_schema.schema_oid
        )
        gender = loaded.get_node("PhysicalPerson").get_attribute("gender")
        kinds = {m.kind for m in gender.modifiers}
        assert "SM_EnumAttributeModifier" in kinds

    def test_multityped_construct_resolves_by_marker(self, company_schema):
        graph = company_schema.to_dictionary(PropertyGraph("d"), bulk=True)
        soid = company_schema.schema_oid
        # Simulate an SSST intermediate schema: the Business construct
        # also carries an ancestor type named "AAncestor" (sorts first).
        extra_type = construct_oid(soid, "type", "AAncestor")
        graph.add_node(extra_type, "SM_Type", schemaOID=soid, name="AAncestor")
        business_oid = construct_oid(soid, "node", "Business")
        graph.add_edge(
            business_oid, extra_type, "SM_HAS_NODE_TYPE",
            edge_id=f"{business_oid}-[extra]", schemaOID=soid,
        )
        loaded = SuperSchema.from_dictionary(graph, soid)
        # The ":node:Business" Skolem marker wins over names[0] order.
        assert loaded.get_node("Business") is not None
        with pytest.raises(Exception):
            loaded.get_node("AAncestor")


class TestBulkInstanceDictionary:
    def test_instance_bulk_matches_per_object(
        self, company_schema, tiny_instance
    ):
        graphs = []
        for bulk in (True, False):
            dictionary = GraphDictionary()
            dictionary.store(company_schema)
            instance = SuperInstance.from_plain_graph(
                company_schema, tiny_instance, 7
            )
            instance.to_dictionary(dictionary.graph, bulk=bulk)
            graphs.append(dictionary.graph)
        fast, slow = graphs
        assert node_snapshot(fast) == node_snapshot(slow)
        assert edge_snapshot(fast) == edge_snapshot(slow)

    def test_instance_round_trip_on_bulk_path(
        self, company_schema, tiny_instance
    ):
        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        instance = SuperInstance.from_plain_graph(
            company_schema, tiny_instance, 7
        )
        instance.to_dictionary(dictionary.graph)
        back = SuperInstance.from_dictionary(
            dictionary.graph, company_schema, 7
        )
        assert node_snapshot(back.data) == node_snapshot(tiny_instance)
        assert edge_snapshot(back.data) == edge_snapshot(tiny_instance)


class TestBulkInstanceFlush:
    def _seed_database(self):
        database = Database()
        inst = 7
        for oid, src in [("n1", "a"), ("n2", "b")]:
            database.add("I_SM_Node", (oid, inst, src))
        database.add("I_SM_Attribute", ("at1", inst, None))  # None value kept
        database.add("I_SM_Attribute", ("at2", inst, 3.5))
        database.add(
            "I_SM_HAS_NODE_PROPERTY", ("h1", "n1", "at1", inst)
        )
        database.add(
            "I_SM_HAS_NODE_PROPERTY", ("h2", "n1", "missing", inst)
        )  # dangling: target never materialized
        return database

    def test_bulk_flush_matches_per_object(self):
        counts = []
        snapshots = []
        for bulk in (True, False):
            graph = PropertyGraph("dict")
            counts.append(
                _flush_instance_facts(self._seed_database(), graph, bulk=bulk)
            )
            snapshots.append((node_snapshot(graph), edge_snapshot(graph)))
        assert counts[0] == counts[1] == (5, 1)
        assert snapshots[0] == snapshots[1]
        nodes, _edges = snapshots[0]
        by_id = {entry[0]: dict(entry[2]) for entry in nodes}
        assert by_id["at1"] == {"instanceOID": 7, "value": None}
        assert by_id["n1"] == {"instanceOID": 7, "sourceOID": "a"}

    def test_existing_oids_are_skipped(self):
        graph = PropertyGraph("dict")
        graph.add_node("n1", "I_SM_Node", instanceOID=7, sourceOID="a")
        added, dropped = _flush_instance_facts(self._seed_database(), graph)
        assert graph.node_count == 4  # n1 not duplicated
        assert added == 4 and dropped == 1
