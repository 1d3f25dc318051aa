"""Columnar fact storage: interner/relation units, the storage-level
randomized differential, the 52-program columnar-vs-tuple battery (plus
the incremental chained-delta battery), spill-to-disk, and the
semantic-equality regression for ``Relation.lookup``."""

import random

import pytest

from repro.obs import RecordingTracer, ResourceGovernor
from repro.vadalog import Engine, parse_program
from repro.vadalog.columnar import ColumnarRelation, SpillStore, ValueInterner
from repro.vadalog.database import Database, Relation

from tests.test_engine_plans import (
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
)
from tests.test_incremental import _mutation, _mutated_inputs

# ---------------------------------------------------------------------------
# Value interner
# ---------------------------------------------------------------------------


class TestValueInterner:
    def test_bool_gets_its_own_exact_code(self):
        itn = ValueInterner()
        c_one = itn.encode(1)
        c_true = itn.encode(True)
        c_float = itn.encode(1.0)
        assert c_one != c_true
        assert c_float == c_one  # 1 and 1.0 are values_equal: one code
        # ... but all three share one ==-equivalence class.
        assert itn.eq[c_one] == itn.eq[c_true]

    def test_zero_family(self):
        itn = ValueInterner()
        c_false = itn.encode(False)
        c_zero = itn.encode(0)
        assert c_false != c_zero
        assert itn.eq[c_false] == itn.eq[c_zero]
        # The 0-family and 1-family never mix.
        c_one = itn.encode(1)
        assert itn.eq[c_zero] != itn.eq[c_one]

    def test_probe_without_insert(self):
        itn = ValueInterner()
        itn.encode("a")
        assert itn.probe("a") is not None
        assert itn.probe("b") is None
        assert len(itn) == 1

    def test_probe_eq_cross_type(self):
        itn = ValueInterner()
        c_one = itn.encode(1)
        # True was never interned exactly, but its ==-class was.
        assert itn.probe(True) is None
        assert itn.probe_eq(True) == itn.eq[c_one]
        assert itn.probe_eq(2) is None

    def test_decode_is_first_seen_representative(self):
        itn = ValueInterner()
        code = itn.encode(1)
        assert itn.encode(1.0) == code
        assert itn.values[code] == 1

    def test_ordinary_values_are_distinct(self):
        itn = ValueInterner()
        codes = [itn.encode(v) for v in ("a", "b", 2, 2.5, None)]
        assert len(set(codes)) == 5
        for code in codes:
            assert itn.eq[code] == code


# ---------------------------------------------------------------------------
# Relation facade parity + units
# ---------------------------------------------------------------------------


def _both_backends():
    return [Relation("r"), ColumnarRelation("r", interner=ValueInterner())]


class TestColumnarRelationFacade:
    def test_add_dedups_like_a_python_set(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        assert rel.add((True,)) is True
        assert rel.add((1,)) is False  # == the stored (True,)
        assert rel.add((0,)) is True
        assert len(rel) == 2

    def test_contains_and_remove_are_eq_level(self):
        # Dedup/containment is ``==``-level (Python set semantics) in BOTH
        # backends; only ``lookup`` filters at values_equal granularity.
        for rel in _both_backends():
            rel.add((1, "a"))
            assert (1.0, "a") in rel
            assert (True, "a") in rel  # True == 1, set semantics
            assert rel.remove((1.0, "a")) is True
            assert len(rel) == 0

    def test_arity_enforced(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add(("a", "b"))
        with pytest.raises(Exception):
            rel.add(("a",))

    def test_lookup_key_matches_tuple_backend(self):
        facts = [("a", 1), ("a", 2), ("b", 1), ("a", 1)]
        results = []
        for rel in _both_backends():
            rel.add_many(facts)
            results.append(
                (
                    sorted(map(repr, rel.lookup_key((0,), ("a",)))),
                    sorted(map(repr, rel.lookup_key((0, 1), ("a", 1)))),
                    sorted(map(repr, rel.lookup_key((0,), ("zzz",)))),
                )
            )
        assert results[0] == results[1]

    def test_copy_is_independent(self):
        for rel in _both_backends():
            rel.add(("a", "b"))
            clone = rel.copy()
            clone.add(("c", "d"))
            assert len(rel) == 1 and len(clone) == 2
            assert sorted(clone.lookup_key((0,), ("a",))) == [("a", "b")]

    def test_reset_replaces_extension(self):
        for rel in _both_backends():
            rel.add_many([("a", "b"), ("c", "d")])
            list(rel.lookup_key((0,), ("a",)))  # force an index
            rel.reset([("x", "y")])
            assert sorted(rel) == [("x", "y")]
            assert list(rel.lookup_key((0,), ("a",))) == []

    def test_tombstones_then_compact(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(i, i + 1) for i in range(50)])
        for i in range(0, 50, 2):
            assert rel.remove((i, i + 1))
        assert len(rel) == 25
        assert rel.has_dead_rows
        assert sorted(rel) == [(i, i + 1) for i in range(1, 50, 2)]
        rel.compact()
        assert not rel.has_dead_rows
        assert len(rel) == 25
        assert sorted(rel.lookup_key((0,), (3,))) == [(3, 4)]

    def test_readd_after_remove(self):
        # The DRed passes remove and re-add the same facts repeatedly;
        # the dedup table and index buckets must stay consistent.
        rel = ColumnarRelation("p", interner=ValueInterner())
        for _ in range(3):
            assert rel.add(("a", "b")) is True
            assert sorted(rel.lookup_key((0,), ("a",))) == [("a", "b")]
            assert rel.remove(("a", "b")) is True
            assert list(rel.lookup_key((0,), ("a",))) == []
        assert len(rel) == 0


class TestLookupSemanticEquality:
    """Regression (satellite): ``lookup`` must not equate 1/1.0/True."""

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_mixed_int_float_bool(self, backend):
        rel = (
            Relation("p")
            if backend == "tuple"
            else ColumnarRelation("p", interner=ValueInterner())
        )
        rel.add_many([(1, "int"), (True, "bool"), (0, "zero"), (False, "false")])
        assert sorted(rel.lookup([(0, 1)])) == [(1, "int")]
        assert sorted(rel.lookup([(0, 1.0)])) == [(1, "int")]
        assert sorted(rel.lookup([(0, True)])) == [(True, "bool")]
        assert sorted(rel.lookup([(0, 0)])) == [(0, "zero")]
        assert sorted(rel.lookup([(0, False)])) == [(False, "false")]
        # Multi-constraint path goes through the same verification.
        assert sorted(rel.lookup([(0, 1), (1, "int")])) == [(1, "int")]
        assert list(rel.lookup([(0, 1), (1, "bool")])) == []


# ---------------------------------------------------------------------------
# Storage-level randomized differential
# ---------------------------------------------------------------------------


def _semantic_key(fact):
    """values_equal-classes of a fact (bools tagged, numerics unified)."""
    out = []
    for v in fact:
        if isinstance(v, bool):
            out.append(("B", v))
        elif isinstance(v, (int, float)):
            out.append(("N", float(v)))
        else:
            out.append(v)
    return tuple(out)


class TestRandomizedStorageDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_mutations_and_probes(self, seed):
        rng = random.Random(9000 + seed)
        tup = Relation("r")
        col = ColumnarRelation("r", interner=ValueInterner())
        vals = ["a", "b", "c", 1, 2, True, False, 0, 1.0, 2.5]
        for op in range(300):
            action = rng.random()
            fact = (rng.choice(vals), rng.choice(vals))
            if action < 0.5:
                assert tup.add(fact) == col.add(fact), (seed, op, fact)
            elif action < 0.68:
                assert tup.remove(fact) == col.remove(fact), (seed, op, fact)
            elif action < 0.72:
                col.compact()
            else:
                if action < 0.85:
                    positions, key = (rng.randrange(2),), (rng.choice(vals),)
                    positions = (positions[0],)
                    a = tup.lookup_key(positions, key)
                    b = col.lookup_key(positions, key)
                elif action < 0.95:
                    key = (rng.choice(vals), rng.choice(vals))
                    a = tup.lookup_key((0, 1), key)
                    b = col.lookup_key((0, 1), key)
                else:
                    a, b = tup, col
                left = sorted(map(repr, map(_semantic_key, a)))
                right = sorted(map(repr, map(_semantic_key, b)))
                assert left == right, (seed, op, fact)
        assert sorted(map(repr, map(_semantic_key, tup))) == sorted(
            map(repr, map(_semantic_key, col))
        )


# ---------------------------------------------------------------------------
# Engine battery: columnar vs tuple backend, bit-identical facts + stats
# ---------------------------------------------------------------------------


def columnar_differential(text, predicates, semi_naive=True, **inputs):
    """Columnar batch execution vs the tuple-at-a-time oracle."""
    program = parse_program(text)
    fast = Engine(semi_naive=semi_naive, columnar=True).run(program, inputs=inputs)
    oracle = Engine(semi_naive=semi_naive, columnar=False).run(program, inputs=inputs)
    assert fast.database.columnar
    assert not oracle.database.columnar
    for predicate in predicates:
        assert _canon(fast.facts(predicate)) == _canon(
            oracle.facts(predicate)
        ), predicate
    assert fast.stats.iterations == oracle.stats.iterations
    assert fast.stats.rule_firings == oracle.stats.rule_firings
    assert fast.stats.facts_derived == oracle.stats.facts_derived
    assert fast.stats.nulls_created == oracle.stats.nulls_created
    assert fast.stats.strata == oracle.stats.strata
    return fast, oracle


class TestColumnarBattery:
    """The 52-program randomized battery, columnar vs tuple backend."""

    @pytest.mark.parametrize("seed", range(20))
    def test_negation_free_recursion(self, seed):
        text, predicates, inputs = _recursion_case(random.Random(1000 + seed))
        columnar_differential(text, predicates, semi_naive=bool(seed % 2), **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_monotonic_aggregates(self, seed):
        text, predicates, inputs = _aggregate_case(random.Random(2000 + seed))
        columnar_differential(text, predicates, **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_existential_skolem(self, seed):
        text, predicates, inputs = _existential_case(random.Random(3000 + seed))
        columnar_differential(text, predicates, **inputs)

    def test_bool_int_distinction_columnar(self):
        # The storage-semantics fixture: p dedups (True,)/(1,) at ==
        # level, the join must still distinguish True from 1.
        columnar_differential(
            "p(X), q(X) -> r(X).",
            ["r"],
            p=[(True,), (1,), (0,)],
            q=[(1,), (False,)],
        )

    def test_stratified_negation_columnar(self):
        columnar_differential(
            "e(X, Y) -> reach(Y).\nnode(X), not reach(X) -> root(X).",
            ["root", "reach"],
            e=[("a", "b"), ("b", "c"), ("d", "c")],
            node=[("a",), ("b",), ("c",), ("d",)],
        )

    def test_vectorized_negation_multi_key(self):
        # Two bound positions in the negated atom: the anti-join folds
        # an FNV key and must exact-verify candidates.
        columnar_differential(
            "a(X, Y), b(Y, Z), not c(X, Z) -> d(X, Z).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4), (4, 4)],
            b=[(2, 5), (3, 6), (4, 7)],
            c=[(1, 5), (3, 3), (2, 99)],
        )

    def test_vectorized_negation_constant_and_wildcard(self):
        columnar_differential(
            "a(X, Y), not c(X, 5, _) -> d(X, Y).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4)],
            c=[(1, 5, "w"), (2, 6, "w"), (9, 5, "w")],
        )

    def test_vectorized_negation_bound_var_repeat(self):
        # The same bound variable at two positions of the negated atom
        # (safety rejects *free* repeats, so both slots join the key).
        columnar_differential(
            "a(X, Y), not c(X, X) -> d(X, Y).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4), (1.0, 9)],
            c=[(1, 1), (2, 3), (3, 3.0)],
        )

    def test_vectorized_negation_mixed_types_and_nan(self):
        nan = float("nan")
        columnar_differential(
            "p(X), not q(X) -> r(X).",
            ["r"],
            p=[(True,), (1,), (0,), (nan,), ("s",)],
            q=[(1.0,), (False,), (nan,)],
        )


# ---------------------------------------------------------------------------
# Incremental chained-delta battery in columnar mode
# ---------------------------------------------------------------------------


def columnar_delta_differential(text, predicates, inputs, rng, kind):
    """Chained deltas: columnar retained state vs tuple retained state vs
    a from-scratch tuple oracle, after each of two updates."""
    program = parse_program(text)
    col_engine = Engine(columnar=True)
    tup_engine = Engine(columnar=False)
    col = col_engine.run(program, inputs=inputs, retain_state=True)
    tup = tup_engine.run(program, inputs=inputs, retain_state=True)
    templates = {
        p: sorted(facts, key=repr)[0] for p, facts in inputs.items() if facts
    }
    current = inputs
    for round_no in range(2):
        added, removed = _mutation(rng, current, templates, kind)
        col_engine.apply_delta(col, added=added, removed=removed)
        tup_engine.apply_delta(tup, added=added, removed=removed)
        current = _mutated_inputs(current, added, removed)
        oracle = Engine(use_plans=False, columnar=False).run(
            program, inputs=current
        )
        for predicate in predicates:
            canon_col = _canon(col.facts(predicate))
            assert canon_col == _canon(tup.facts(predicate)), (
                f"columnar vs tuple delta mismatch on {predicate} "
                f"(round {round_no})"
            )
            assert canon_col == _canon(oracle.facts(predicate)), (
                f"columnar delta vs oracle mismatch on {predicate} "
                f"(round {round_no})"
            )


KINDS = ("insert", "delete", "mixed")


class TestColumnarIncrementalBattery:
    @pytest.mark.parametrize("seed", range(9))
    def test_recursion_deltas(self, seed):
        rng = random.Random(5000 + seed)
        text, predicates, inputs = _recursion_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_aggregate_deltas(self, seed):
        rng = random.Random(6000 + seed)
        text, predicates, inputs = _aggregate_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_existential_deltas(self, seed):
        rng = random.Random(7000 + seed)
        text, predicates, inputs = _existential_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])


# ---------------------------------------------------------------------------
# Backend conversion + spill-to-disk
# ---------------------------------------------------------------------------


class TestBackendConversion:
    def test_round_trip_preserves_facts(self):
        db = Database()
        db.add_all("e", [("a", "b"), ("b", "c"), (1, 2.5)])
        db.add_all("p", [(True,), (0,)])
        col = db.to_backend(True)
        back = col.to_backend(False)
        for predicate in ("e", "p"):
            assert db.facts(predicate) == col.facts(predicate)
            assert db.facts(predicate) == back.facts(predicate)

    def test_engine_converts_mismatched_database(self):
        db = Database()  # tuple backend
        db.add_all("e", [("a", "b"), ("b", "c")])
        program = parse_program("e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).")
        result = Engine(columnar=True).run(program, database=db)
        assert result.database.columnar
        assert not db.columnar  # the input is untouched
        assert ("a", "c") in result.facts("tc")


class TestSpill:
    def test_spill_and_rehydrate_round_trip(self):
        db = Database(columnar=True)
        facts = [(f"n{i}", f"n{i + 1}", float(i)) for i in range(500)]
        db.add_all("e", facts)
        spilled = db.spill_over_budget(0)
        assert spilled == ["e"]
        assert db.total_resident_facts() == 0
        assert db.count("e") == 500  # len() needs no rehydration
        # Any access rehydrates transparently.
        assert sorted(db.relation("e").lookup_key((0,), ("n7",))) == [
            ("n7", "n8", 7.0)
        ]
        assert db.total_resident_facts() == 500
        db.close()

    def test_keep_set_is_never_spilled(self):
        db = Database(columnar=True)
        db.add_all("big", [(i,) for i in range(100)])
        db.add_all("hot", [(i,) for i in range(50)])
        spilled = db.spill_over_budget(0, keep=["hot"])
        assert spilled == ["big"]
        assert not db.relation("hot").spilled
        db.close()

    def test_budget_spills_largest_first_until_under(self):
        db = Database(columnar=True)
        db.add_all("a", [(i,) for i in range(100)])
        db.add_all("b", [(i,) for i in range(10)])
        spilled = db.spill_over_budget(50)
        assert spilled == ["a"]
        assert db.total_resident_facts() == 10
        db.close()

    def test_tuple_backend_is_a_noop(self):
        db = Database()
        db.add_all("a", [(i,) for i in range(100)])
        assert db.spill_over_budget(0) == []

    def test_governor_driven_spill_during_run(self):
        edges = [(f"n{i}", f"n{(i * 7 + 3) % 40}") for i in range(40)]
        text = (
            "e(X, Y) -> tc(X, Y).\n"
            "tc(X, Y), e(Y, Z) -> tc(X, Z).\n"
            "tc(X, Y) -> reach(Y).\n"
        )
        program = parse_program(text)
        tracer = RecordingTracer()
        governor = ResourceGovernor(max_resident_facts=10)
        spilling = Engine(governor=governor, tracer=tracer).run(
            program, inputs={"e": edges}
        )
        plain = Engine(columnar=False).run(program, inputs={"e": edges})
        assert spilling.status == "fixpoint"
        for predicate in ("tc", "reach"):
            assert spilling.facts(predicate) == plain.facts(predicate)
        events = [
            e for e in tracer.events if e.get("name") == "engine.spilled"
        ]
        assert events, "expected at least one spill event"
        spilling.database.close()

    def test_spill_store_page_round_trip(self):
        store = SpillStore()
        cols = [list(range(20000)), [i * 3 for i in range(20000)]]
        store.write("r", 2, cols)
        assert [list(col) for col in store.read("r", 2)] == cols
        store.close()
