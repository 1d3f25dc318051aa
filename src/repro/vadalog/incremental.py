"""Incremental maintenance for the chase engine.

The paper's production pipeline rematerializes the whole KG on every
registry refresh (Section 6).  This module maintains a saturated chase
result under extensional *deltas* instead, in time proportional to the
change:

- **Insertions** propagate stratum-by-stratum with the semi-naive delta
  plans of :mod:`repro.vadalog.plan`, generalized from "recursive
  predicates" to "changed predicates": for the k-th changed body
  occurrence chosen as the delta atom, earlier changed occurrences are
  restricted to old facts and later ones see the full relation — an
  exact partition of the new matches.  Monotone aggregate rules reuse
  the **saturated accumulator** retained from the base run: new
  contributions are delta-joined into it and only touched groups are
  re-emitted, so a single new stake updates ``msum`` in O(|delta|).

- **Deletions** run DRed (delete/re-derive): the downward closure of
  the retracted facts is over-deleted with the same join plans (the
  removed facts are temporarily re-added so the closure joins see the
  *old* world), then each over-deleted fact gets a goal-directed
  re-derivation attempt through :meth:`RulePlans.rederive_plan`, and
  survivors cascade through the normal insertion pass.  With
  ``track_support=True`` the over-deletion walk follows recorded
  support sets instead of re-joining (bounded memory: at most
  :data:`SupportIndex.MAX_SUPPORTS` supports per fact — the walk may
  over-mark when a support was evicted, which re-derivation corrects).

- **Non-maintainable strata** — negation over changed predicates,
  deletions reaching aggregate or existential rules, non-monotone
  aggregates, existential heads whose writers fail the safety gate —
  **recompute from their stratum boundary**: the stratum's derived
  predicates reset to the post-update extensional baseline and the
  engine's own ``_evaluate_stratum`` re-runs.  The before/after diff
  then feeds downstream strata as an ordinary delta.

Labeled nulls minted during maintenance continue the retained
:class:`NullFactory` counter, so incremental ordinals differ from a
from-scratch run; results are equal **up to null renaming** (the
differential battery canonicalizes nulls before comparing).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EvaluationError, ResourceLimitError
from repro.vadalog.engine import EvaluationStats, _BudgetStop, _hashable
from repro.vadalog.aggregates import GroupAccumulator, aggregate, is_monotonic
from repro.vadalog.ast import (
    AggregateCall,
    Atom,
    BinOp,
    Condition,
    FunctionCall,
    Program,
    Rule,
    TermExpr,
)
from repro.vadalog.database import Database, Fact
from repro.vadalog.plan import (
    _K_CONST,
    _K_EXIST,
    _K_SKOLEM,
    _K_VAR,
    RulePlans,
    check_condition,
    evaluate_expression,
    execute_plan,
    values_equal,
)
from repro.vadalog.stratify import Stratum
from repro.vadalog.terms import SkolemValue, Variable

Substitution = Dict[Variable, Any]
FactKey = Tuple[str, Fact]


# ---------------------------------------------------------------------------
# Retained state
# ---------------------------------------------------------------------------


class SupportIndex:
    """Bounded per-fact support sets recorded during the chase.

    A *support* of a derived fact is one instantiation of the positive
    body that produced it.  The index keeps at most
    :data:`MAX_SUPPORTS` supports per fact plus an inverted dependents
    map, so the deletion walk can follow ``removed fact -> facts it
    supported`` without re-running joins.  Eviction (supports beyond
    the bound) only ever causes *over*-marking — a fact whose surviving
    support was evicted gets marked, and the re-derivation pass brings
    it back — never under-deletion.
    """

    MAX_SUPPORTS = 4

    __slots__ = ("supports", "dependents")

    def __init__(self) -> None:
        self.supports: Dict[FactKey, List[Tuple[FactKey, ...]]] = {}
        self.dependents: Dict[FactKey, Set[FactKey]] = {}

    def record(self, head: FactKey, body: Tuple[FactKey, ...]) -> None:
        entries = self.supports.setdefault(head, [])
        if len(entries) >= self.MAX_SUPPORTS or body in entries:
            return
        entries.append(body)
        for member in body:
            self.dependents.setdefault(member, set()).add(head)

    def discard(self, head: FactKey) -> None:
        """Drop every recorded support of ``head`` (it has been deleted)."""
        entries = self.supports.pop(head, None)
        if not entries:
            return
        for body in entries:
            for member in body:
                deps = self.dependents.get(member)
                if deps is not None:
                    deps.discard(head)
                    if not deps:
                        del self.dependents[member]

    def total_supports(self) -> int:
        return sum(len(entries) for entries in self.supports.values())


@dataclass
class _AggregateState:
    """The saturated accumulator of one aggregate rule after a run."""

    accumulator: GroupAccumulator
    witnesses: Dict[Tuple[Any, ...], Substitution]
    group_vars: Tuple[Variable, ...]


class MaterializedState:
    """Everything :func:`apply_delta` needs to maintain a chase result.

    Built by :meth:`Engine.run` when ``retain_state=True``: the live
    database, the stratification, the extensional snapshot, per-stratum
    fact partitions (frozen), saturated aggregate accumulators, and the
    null/Skolem factories (so maintenance continues their counters).
    """

    __slots__ = (
        "program", "working", "strata", "database", "nulls", "skolems",
        "edb", "per_stratum", "aggregates", "support", "engine",
        "updates_applied",
    )

    def __init__(
        self,
        program: Program,
        working: Program,
        strata: Sequence[Stratum],
        database: Database,
        nulls: Any,
        skolems: Dict[str, Any],
    ) -> None:
        self.program = program
        self.working = working
        self.strata = list(strata)
        self.database = database
        self.nulls = nulls
        self.skolems = skolems
        self.edb: Dict[str, Set[Fact]] = {}
        self.per_stratum: List[Dict[str, FrozenSet[Fact]]] = []
        self.aggregates: Dict[Rule, _AggregateState] = {}
        self.support: Optional[SupportIndex] = None
        self.engine: Any = None
        self.updates_applied = 0

    # -- hooks called by the engine -------------------------------------
    def store_aggregate(
        self,
        rule: Rule,
        accumulator: GroupAccumulator,
        witnesses: Dict[Tuple[Any, ...], Substitution],
        group_vars: Sequence[Variable],
    ) -> None:
        """Keep the saturated accumulator of ``rule`` (last iteration wins).

        Witnesses are projected to the group variables: the insertion
        gate only admits aggregate rules whose head and conditions need
        nothing beyond ``group_vars`` and the target, so full
        substitutions would retain arbitrarily many bindings for no
        benefit (bounded memory).
        """
        group_tuple = tuple(group_vars)
        projected = {
            group: {v: base[v] for v in group_tuple if v in base}
            for group, base in witnesses.items()
        }
        self.aggregates[rule] = _AggregateState(accumulator, projected, group_tuple)

    # -- snapshots -------------------------------------------------------
    def per_stratum_snapshot(self) -> Dict[int, Dict[str, FrozenSet[Fact]]]:
        """Stable per-stratum fact partitions (see the result API docs)."""
        snapshot: Dict[int, Dict[str, FrozenSet[Fact]]] = {
            index: dict(partition)
            for index, partition in enumerate(self.per_stratum)
        }
        owned: Set[str] = set()
        for stratum in self.strata:
            owned.update(stratum.predicates)
        snapshot[-1] = {
            predicate: frozenset(self.database.relation(predicate))
            for predicate in sorted(self.database.predicates())
            if predicate not in owned
        }
        return snapshot

    def refresh_stratum_snapshot(self, index: int) -> None:
        if index < len(self.per_stratum):
            self.per_stratum[index] = {
                predicate: frozenset(self.database.relation(predicate))
                for predicate in sorted(self.strata[index].predicates)
            }


# ---------------------------------------------------------------------------
# Delta results
# ---------------------------------------------------------------------------


@dataclass
class DeltaResult:
    """Net per-predicate changes produced by one :func:`apply_delta` call.

    ``added``/``removed`` include the applied extensional changes, so a
    caller chaining materialized states (the SSST materializer runs
    three) can feed one state's net changes directly into the next.
    """

    added: Dict[str, Set[Fact]] = field(default_factory=dict)
    removed: Dict[str, Set[Fact]] = field(default_factory=dict)
    strata_skipped: int = 0
    strata_incremental: int = 0
    strata_recomputed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    skipped_removals: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total_added(self) -> int:
        return sum(len(facts) for facts in self.added.values())

    @property
    def total_removed(self) -> int:
        return sum(len(facts) for facts in self.removed.values())

    def changed(self) -> bool:
        return bool(self.added) or bool(self.removed)


# ---------------------------------------------------------------------------
# Safety classification
# ---------------------------------------------------------------------------

_SKIP = "skip"
_INCREMENTAL = "incremental"
_RECOMPUTE = "recompute"


def _positive_reads(rule: Rule) -> Set[str]:
    return {atom.predicate for atom in rule.body_atoms()}


def _negated_reads(rule: Rule) -> Set[str]:
    return {negated.atom.predicate for negated in rule.negated_atoms()}


def _head_predicates(rules: Iterable[Rule]) -> Set[str]:
    return {atom.predicate for rule in rules for atom in rule.head}


def _expression_vars_outside_aggregate(expression: Any) -> Set[Variable]:
    """Variables an expression needs besides the aggregate's own value."""
    if isinstance(expression, AggregateCall):
        return set()
    if isinstance(expression, BinOp):
        return _expression_vars_outside_aggregate(
            expression.left
        ) | _expression_vars_outside_aggregate(expression.right)
    if isinstance(expression, FunctionCall):
        out: Set[Variable] = set()
        for argument in expression.arguments:
            out |= _expression_vars_outside_aggregate(argument)
        return out
    if isinstance(expression, TermExpr):
        return set(expression.variables())
    return set(expression.variables()) if hasattr(expression, "variables") else set()


def _post_condition_is_lower_bound(
    condition: Condition, target: Variable, group_vars: Set[Variable]
) -> bool:
    """True when growing the target can only turn the condition on.

    Monotone-aggregate emissions stay valid under insertions exactly
    when every post condition is a lower-bound gate on the bare target
    (``v > rhs`` / ``v >= rhs`` or mirrored) with the other side fixed
    by group variables.
    """
    left_vars = set(condition.left.variables())
    right_vars = set(condition.right.variables())
    if target in left_vars and target in right_vars:
        return False
    if target in left_vars:
        if not isinstance(condition.left, TermExpr) or condition.left.term != target:
            return False
        if not right_vars <= group_vars:
            return False
        return condition.op in (">", ">=")
    if target in right_vars:
        if not isinstance(condition.right, TermExpr) or condition.right.term != target:
            return False
        if not left_vars <= group_vars:
            return False
        return condition.op in ("<", "<=")
    return (left_vars | right_vars) <= group_vars


def _aggregate_insert_safe(
    engine: Any, state: MaterializedState, rule: Rule, stats: Any
) -> bool:
    """Can this aggregate rule absorb insertions via its retained accumulator?

    Requirements: a monotone function; the target confined to post
    conditions that are lower-bound gates; head variables and Skolem
    arguments covered by the group variables (the retained witnesses
    are projected to them); and a retained saturated accumulator from
    the base run.
    """
    retained = state.aggregates.get(rule)
    if retained is None:
        return False
    plans = engine._plans_for(rule, stats)
    try:
        plan = plans.aggregate_plan()
    except EvaluationError:
        return False
    if not is_monotonic(plan.call.function):
        return False
    if retained.group_vars != plan.group_vars:
        return False
    group_vars = set(plan.group_vars)
    target = plan.target
    for _, slots in plans.head_ops:
        for kind, payload in slots:
            if kind == _K_VAR and payload == target:
                return False
    for _, _, arg_ops in plans.placeholders:
        for is_var, argument in arg_ops:
            if is_var and (argument == target or argument not in group_vars):
                return False
    if not _expression_vars_outside_aggregate(plan.assignment.expression) <= group_vars:
        return False
    for condition in plan.post:
        if not _post_condition_is_lower_bound(condition, target, group_vars):
            return False
    return True


def _existential_insert_safe(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    rule: Rule,
    changed: Set[str],
    stats: Any,
) -> bool:
    """Gate for propagating insertions through an existential head.

    The restricted chase suppresses a firing whenever the head pattern
    is already satisfied, so incremental insertion is order-faithful
    (up to null renaming) only when same-pattern firings cannot race:
    for every predicate this rule writes existentially, (1) the
    predicate holds no extensional facts and receives no direct
    extensional delta, (2) no writer grounds the existential positions,
    (3) every writer is either an aggregate rule (one emission per
    group) or has a full named frontier (distinct matches yield
    distinct head patterns), and (4) at most one writer reads no
    stratum predicate and at most one does — so the relative firing
    order of competing writers is the same in every evaluation order.
    """
    plans = engine._plans_for(rule, stats)
    existential_preds: Dict[str, Set[int]] = {}
    for index, (predicate, slots) in enumerate(plans.head_ops):
        positions = {
            position for position, (kind, _) in enumerate(slots) if kind == _K_EXIST
        }
        if positions:
            existential_preds.setdefault(predicate, set()).update(positions)
    for predicate, positions in existential_preds.items():
        if state.edb.get(predicate) or predicate in changed:
            return False
        writers = [
            other
            for other in state.working.rules
            if any(atom.predicate == predicate for atom in other.head)
        ]
        round_zero = 0
        recursive_writers = 0
        for writer in writers:
            writer_plans = engine._plans_for(writer, stats)
            for w_predicate, slots in writer_plans.head_ops:
                if w_predicate != predicate:
                    continue
                for position in positions:
                    if position >= len(slots) or slots[position][0] != _K_EXIST:
                        return False
            if writer.has_aggregate():
                if not _aggregate_insert_safe(engine, state, writer, stats):
                    return False
            else:
                named_body = {
                    v for v in writer.body_variables() if v.name != "_"
                }
                recoverable: Set[Variable] = set()
                for index in range(len(writer_plans.head_ops)):
                    recoverable.update(writer_plans.rederive_bound_vars(index))
                if not named_body <= recoverable:
                    return False
            if _positive_reads(writer) & stratum.predicates:
                recursive_writers += 1
            else:
                round_zero += 1
        if round_zero > 1 or recursive_writers > 1:
            return False
    return True


def _classify_stratum(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    add_keys: Set[str],
    rm_keys: Set[str],
    stats: Any,
) -> str:
    changed = add_keys | rm_keys
    stratum_heads = _head_predicates(stratum.rules)
    pos_reads: Set[str] = set()
    neg_reads: Set[str] = set()
    for rule in stratum.rules:
        pos_reads |= _positive_reads(rule)
        neg_reads |= _negated_reads(rule)
    touched = (pos_reads | neg_reads | stratum_heads | stratum.predicates) & changed
    if not touched:
        return _SKIP

    # Once anything enters a recursive stratum, its own predicates count
    # as changed for gating (the delta cascades through them).
    effective = set(changed)
    if stratum.recursive:
        effective |= stratum.predicates
    if neg_reads & effective:
        return _RECOMPUTE

    rm_effective = set(rm_keys)
    if stratum.recursive and rm_keys & (pos_reads | stratum_heads | stratum.predicates):
        rm_effective |= stratum.predicates

    for rule in stratum.rules:
        rule_reads = _positive_reads(rule)
        rule_heads = {atom.predicate for atom in rule.head}
        rule_affected = bool(rule_reads & effective) or bool(rule_heads & changed)
        if not rule_affected:
            continue
        removals_reach = bool(rule_reads & rm_effective) or bool(
            rule_heads & rm_effective
        )
        if rule.has_aggregate():
            if removals_reach:
                return _RECOMPUTE
            if not _aggregate_insert_safe(engine, state, rule, stats):
                return _RECOMPUTE
        if rule.existential_variables():
            if removals_reach:
                return _RECOMPUTE
            if not _existential_insert_safe(
                engine, state, stratum, rule, changed, stats
            ):
                return _RECOMPUTE
    return _INCREMENTAL


# ---------------------------------------------------------------------------
# Insertion propagation
# ---------------------------------------------------------------------------


def _delta_matches(
    plans: RulePlans, db: Database, delta: Dict[str, Set[Fact]]
) -> Iterator[Substitution]:
    """Matches using >= 1 delta fact, over *changed* predicates.

    Generalizes :meth:`Engine._semi_naive_matches_plan` from the
    recursive predicates of a stratum to an arbitrary changed set, with
    the same exact old/delta/full occurrence partition.
    """
    body = plans.rule.body
    delta_indexes = [
        i
        for i, literal in enumerate(body)
        if isinstance(literal, Atom) and delta.get(literal.predicate)
    ]
    for k, index in enumerate(delta_indexes):
        delta_facts = delta[body[index].predicate]
        binder = plans.delta_binder(index)
        rest_plan = plans.delta_plan(index)
        excludes: Dict[int, Set[Fact]] = {}
        for earlier in delta_indexes[:k]:
            earlier_delta = delta.get(body[earlier].predicate)
            if earlier_delta:
                excludes[earlier] = earlier_delta
        for fact in delta_facts:
            base = binder.match(fact)
            if base is None:
                continue
            yield from execute_plan(
                rest_plan, db, base, excludes if excludes else None
            )


def _aggregate_delta_matches(
    engine: Any,
    state: MaterializedState,
    plans: RulePlans,
    db: Database,
    delta: Dict[str, Set[Fact]],
) -> Iterator[Substitution]:
    """Delta-join new contributions into the retained accumulator.

    Only groups touched by a new contribution are re-emitted; untouched
    groups' head facts are already in the database.  The contributor
    keys replicate the engine's construction exactly, so a repeated
    contribution collides (and resolves) just as a full recomputation
    would.
    """
    plan = plans.aggregate_plan()
    retained = state.aggregates[plans.rule]
    accumulator = retained.accumulator
    call = plan.call
    group_vars = plan.group_vars
    touched: Set[Tuple[Any, ...]] = set()
    delta_indexes = [
        i
        for i, literal in enumerate(plan.pre)
        if isinstance(literal, Atom) and delta.get(literal.predicate)
    ]
    for k, index in enumerate(delta_indexes):
        delta_facts = delta[plan.pre[index].predicate]
        binder = plan.pre_delta_binder(index)
        rest_plan = plan.pre_delta_plan(index)
        excludes: Dict[int, Set[Fact]] = {}
        for earlier in delta_indexes[:k]:
            earlier_delta = delta.get(plan.pre[earlier].predicate)
            if earlier_delta:
                excludes[earlier] = earlier_delta
        for fact in delta_facts:
            base = binder.match(fact)
            if base is None:
                continue
            for substitution in execute_plan(
                rest_plan, db, base, excludes if excludes else None
            ):
                group = tuple(
                    _hashable(substitution.get(v)) for v in group_vars
                )
                if call.contributors:
                    contributor = tuple(
                        _hashable(substitution.get(v)) for v in call.contributors
                    )
                else:
                    contributor = tuple(
                        sorted(
                            (
                                (v.name, _hashable(value))
                                for v, value in substitution.items()
                            ),
                            key=lambda item: item[0],
                        )
                    )
                value = evaluate_expression(call.value, substitution)
                accumulator.contribute(group, contributor, value)
                retained.witnesses.setdefault(
                    group,
                    {v: substitution[v] for v in group_vars if v in substitution},
                )
                touched.add(group)

    groups = accumulator.state()
    for group in touched:
        value = aggregate(accumulator.function, groups[group])
        base = retained.witnesses[group]
        substitution = {v: base[v] for v in group_vars if v in base}
        substitution[plan.target] = evaluate_expression(
            plan.assignment.expression, base, aggregate_value=value
        )
        if all(check_condition(c, substitution) for c in plan.post):
            yield substitution


def _insertion_pass(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    db: Database,
    seeds: Dict[str, Set[Fact]],
    stats: Any,
    added_now: Dict[str, Set[Fact]],
) -> None:
    """Semi-naive rounds seeded from ``seeds`` until no new facts appear."""
    support_sink = state.support
    delta = {
        predicate: set(facts) for predicate, facts in seeds.items() if facts
    }
    rounds = 0
    while delta:
        rounds += 1
        if rounds > engine.max_iterations:
            raise ResourceLimitError(
                f"incremental pass over {sorted(stratum.predicates)} did not "
                f"reach a fixpoint within {engine.max_iterations} rounds",
                resource="iterations",
                limit=engine.max_iterations,
                stats=stats,
            )
        stats.iterations += 1
        pending: List[Tuple[str, Fact]] = []
        for rule in stratum.rules:
            plans = engine._plans_for(rule, stats)
            if plans.is_aggregate:
                if not any(
                    delta.get(literal.predicate)
                    for literal in plans.aggregate_plan().pre
                    if isinstance(literal, Atom)
                ):
                    continue
                matches = _aggregate_delta_matches(engine, state, plans, db, delta)
            else:
                matches = _delta_matches(plans, db, delta)
            recorder = (
                engine._support_template(rule) if support_sink is not None else None
            )
            if recorder is None:
                for substitution in matches:
                    stats.rule_firings += 1
                    for predicate, fact in plans.instantiate_head(
                        substitution, db, stats, state.nulls, state.skolems,
                        engine.max_nulls,
                    ):
                        pending.append((predicate, fact))
            else:
                for substitution in matches:
                    stats.rule_firings += 1
                    start = len(pending)
                    for predicate, fact in plans.instantiate_head(
                        substitution, db, stats, state.nulls, state.skolems,
                        engine.max_nulls,
                    ):
                        pending.append((predicate, fact))
                    if len(pending) > start:
                        _record_supports(
                            support_sink, recorder, substitution, pending, start
                        )
        new_facts: Dict[str, Set[Fact]] = {}
        for predicate, fact in pending:
            if db.add(predicate, fact):
                stats.facts_derived += 1
                new_facts.setdefault(predicate, set()).add(fact)
                added_now.setdefault(predicate, set()).add(fact)
        delta = new_facts


def _record_supports(
    sink: SupportIndex,
    recorder: Tuple[Any, ...],
    substitution: Substitution,
    pending: List[Tuple[str, Fact]],
    start: int,
) -> None:
    body_key = tuple(
        (
            predicate,
            tuple(
                substitution[payload] if is_var else payload
                for is_var, payload in ops
            ),
        )
        for predicate, ops in recorder
    )
    for item in pending[start:]:
        sink.record(item, body_key)


# ---------------------------------------------------------------------------
# Deletion (DRed)
# ---------------------------------------------------------------------------


def _unify_head_fact(
    plans: RulePlans, head_index: int, fact: Fact
) -> Optional[Substitution]:
    """Match a ground fact against one head atom, recovering bindings.

    Skolem values decompose structurally (functor + arguments) against
    the head's Skolem template, so goal-directed re-derivation works
    through value-invention heads too.
    """
    _, slots = plans.head_ops[head_index]
    if len(fact) != len(slots):
        return None
    placeholders = {
        placeholder: (functor, arg_ops)
        for placeholder, functor, arg_ops in plans.placeholders
    }
    substitution: Substitution = {}
    for (kind, payload), value in zip(slots, fact):
        if kind == _K_CONST:
            if not values_equal(payload, value):
                return None
        elif kind == _K_VAR:
            if payload in substitution:
                if not values_equal(substitution[payload], value):
                    return None
            else:
                substitution[payload] = value
        elif kind == _K_SKOLEM:
            functor, arg_ops = placeholders[payload]
            if not isinstance(value, SkolemValue) or value.functor != functor:
                return None
            if len(value.arguments) != len(arg_ops):
                return None
            for (is_var, argument), argument_value in zip(arg_ops, value.arguments):
                if is_var:
                    if argument.name == "_":
                        continue
                    if argument in substitution:
                        if not values_equal(substitution[argument], argument_value):
                            return None
                    else:
                        substitution[argument] = argument_value
                elif not values_equal(argument, argument_value):
                    return None
        else:  # _K_EXIST: nulls are not goal-directed re-derivable
            return None
    return substitution


def _rederivable(
    engine: Any,
    state: MaterializedState,
    db: Database,
    goal_rules: List[Tuple[Rule, RulePlans, int]],
    fact: Fact,
    stats: Any,
) -> bool:
    """Does any rule still derive ``fact`` in the current database?"""
    support_sink = state.support
    for rule, plans, head_index in goal_rules:
        base = _unify_head_fact(plans, head_index, fact)
        if base is None:
            continue
        plan = plans.rederive_plan(head_index)
        for substitution in execute_plan(plan, db, dict(base)):
            if support_sink is not None:
                recorder = engine._support_template(rule)
                if recorder is not None:
                    predicate = plans.head_ops[head_index][0]
                    _record_supports(
                        support_sink, recorder, substitution,
                        [(predicate, fact)], 0,
                    )
            return True
    return False


def _overdelete_joins(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    db: Database,
    removed_seeds: Dict[str, Set[Fact]],
    stats: Any,
) -> Dict[str, Set[Fact]]:
    """Downward closure of the removed facts through this stratum's rules.

    The removed seeds are temporarily re-added so the closure joins see
    the *old* world (a derivation needing two removed facts must still
    find both); new facts already inserted this update can only add
    matches, i.e. extra over-deletion that re-derivation corrects.
    """
    restore: List[Tuple[str, Fact]] = []
    for predicate, facts in removed_seeds.items():
        relation = db.relation(predicate)
        for fact in facts:
            if relation.add(fact):
                restore.append((predicate, fact))
    marked: Dict[str, Set[Fact]] = {}
    try:
        frontier = {
            predicate: set(facts)
            for predicate, facts in removed_seeds.items()
            if facts
        }
        while frontier:
            found: Dict[str, Set[Fact]] = {}
            for rule in stratum.rules:
                plans = engine._plans_for(rule, stats)
                for substitution in _delta_matches(plans, db, frontier):
                    for predicate, fact in plans.instantiate_head(
                        substitution, db, stats, state.nulls, state.skolems,
                        engine.max_nulls,
                    ):
                        if fact in state.edb.get(predicate, ()):
                            continue
                        if not db.has(predicate, fact):
                            continue
                        if fact in marked.get(predicate, ()):
                            continue
                        if fact in removed_seeds.get(predicate, ()):
                            continue
                        found.setdefault(predicate, set()).add(fact)
            for predicate, facts in found.items():
                marked.setdefault(predicate, set()).update(facts)
            frontier = found
    finally:
        for predicate, fact in restore:
            db.relation(predicate).remove(fact)
    return marked


def _overdelete_supports(
    state: MaterializedState,
    stratum: Stratum,
    db: Database,
    removed_seeds: Dict[str, Set[Fact]],
) -> Dict[str, Set[Fact]]:
    """Support-walk over-deletion: mark the full downward closure.

    Every dependent transitively reachable through recorded supports is
    over-deleted, exactly like textbook DRed — facts with a surviving
    alternative derivation come back in the re-derivation pass.  Do NOT
    skip a dependent because one of its other recorded supports still
    looks live: under cyclic support (recursive strata) two doomed facts
    can hold each other's supports live while the walk runs, and neither
    ever gets marked (zombie cycles).  Over-marking is always corrected
    by re-derivation; under-marking is not correctable.
    """
    support = state.support
    assert support is not None
    stratum_heads = _head_predicates(stratum.rules)
    marked: Dict[str, Set[Fact]] = {}
    queue = deque(
        (predicate, fact)
        for predicate, facts in removed_seeds.items()
        for fact in facts
    )
    seen: Set[FactKey] = set(queue)
    while queue:
        key = queue.popleft()
        dependents = support.dependents.get(key)
        if not dependents:
            continue
        for dependent in list(dependents):
            predicate, fact = dependent
            if dependent in seen or predicate not in stratum_heads:
                continue
            if not db.has(predicate, fact):
                continue
            if fact in state.edb.get(predicate, ()):
                continue
            seen.add(dependent)
            marked.setdefault(predicate, set()).add(fact)
            db.relation(predicate).remove(fact)
            queue.append(dependent)
    # The join variant removes marked facts afterwards; this walk removes
    # them inline, so there is nothing left to remove here.
    return marked


def _deletion_pass(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    db: Database,
    removed_seeds: Dict[str, Set[Fact]],
    stats: Any,
    added_now: Dict[str, Set[Fact]],
    removed_now: Dict[str, Set[Fact]],
    result: DeltaResult,
) -> Dict[str, Set[Fact]]:
    """DRed one stratum; returns the re-derived facts (insertion seeds)."""
    support = state.support
    use_supports = support is not None and all(
        engine._support_template(rule) is not None for rule in stratum.rules
    )
    if use_supports:
        marked = _overdelete_supports(state, stratum, db, removed_seeds)
    else:
        marked = _overdelete_joins(
            engine, state, stratum, db, removed_seeds, stats
        )
        for predicate, facts in marked.items():
            relation = db.relation(predicate)
            for fact in facts:
                relation.remove(fact)
    overdeleted = sum(len(facts) for facts in marked.values())
    result.overdeleted += overdeleted
    for predicate, facts in marked.items():
        removed_now.setdefault(predicate, set()).update(facts)
        if support is not None:
            for fact in facts:
                support.discard((predicate, fact))

    # Re-derivation candidates: every over-deleted fact, plus incoming
    # removed facts this stratum's rules could still derive (an upstream
    # retraction does not retract an independently derivable fact).
    goal_rules: Dict[str, List[Tuple[Rule, RulePlans, int]]] = {}
    for rule in stratum.rules:
        if rule.has_aggregate() or rule.existential_variables():
            continue  # unreachable in a deletion-safe stratum; defensive
        plans = engine._plans_for(rule, stats)
        for head_index, (predicate, _) in enumerate(plans.head_ops):
            goal_rules.setdefault(predicate, []).append(
                (rule, plans, head_index)
            )
    candidates: Dict[str, Set[Fact]] = {}
    for predicate, facts in marked.items():
        candidates.setdefault(predicate, set()).update(facts)
    for predicate, facts in removed_seeds.items():
        if predicate in goal_rules:
            candidates.setdefault(predicate, set()).update(facts)

    rederived: Dict[str, Set[Fact]] = {}
    for predicate, facts in candidates.items():
        rules_for = goal_rules.get(predicate)
        if not rules_for:
            continue
        for fact in facts:
            if db.has(predicate, fact):
                continue
            if _rederivable(engine, state, db, rules_for, fact, stats):
                db.add(predicate, fact)
                stats.facts_derived += 1
                rederived.setdefault(predicate, set()).add(fact)
                added_now.setdefault(predicate, set()).add(fact)
    result.rederived += sum(len(facts) for facts in rederived.values())
    return rederived


# ---------------------------------------------------------------------------
# Boundary recompute
# ---------------------------------------------------------------------------


def _recompute_stratum(
    engine: Any,
    state: MaterializedState,
    stratum: Stratum,
    index: int,
    db: Database,
    stats: Any,
    added_now: Dict[str, Set[Fact]],
    removed_now: Dict[str, Set[Fact]],
) -> None:
    """Re-run one stratum from its boundary (the non-monotone fallback).

    Every predicate this stratum's rules write resets to the
    post-update extensional baseline, then the engine's own stratum
    evaluator re-runs against the already-updated upstream state.  The
    before/after diff becomes the downstream delta.
    """
    stratum_heads = _head_predicates(stratum.rules)
    before = {
        predicate: set(db.relation(predicate)) for predicate in stratum_heads
    }
    for predicate in stratum_heads:
        db.reset(predicate, state.edb.get(predicate, set()))
        if state.support is not None:
            for fact in before[predicate]:
                state.support.discard((predicate, fact))
    engine._retain_sink = state
    engine._support_sink = state.support
    try:
        engine._evaluate_stratum(
            stratum, index, db, stats, state.nulls, state.skolems
        )
    finally:
        engine._retain_sink = None
        engine._support_sink = None
    for predicate in stratum_heads:
        after = set(db.relation(predicate))
        gained = after - before[predicate]
        lost = before[predicate] - after
        if gained:
            added_now.setdefault(predicate, set()).update(gained)
        if lost:
            removed_now.setdefault(predicate, set()).update(lost)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _normalize(
    delta: Optional[Dict[str, Iterable[Sequence[Any]]]]
) -> Dict[str, Set[Fact]]:
    normalized: Dict[str, Set[Fact]] = {}
    for predicate, facts in (delta or {}).items():
        bucket = normalized.setdefault(predicate, set())
        for fact in facts:
            bucket.add(tuple(fact))
    return normalized


def _merge_net(
    pending_add: Dict[str, Set[Fact]],
    pending_remove: Dict[str, Set[Fact]],
    gained: Dict[str, Set[Fact]],
    lost: Dict[str, Set[Fact]],
) -> None:
    """Fold one stratum's net changes into the running per-update net.

    A fact that reappears after being removed (or vanishes after being
    added) earlier in the same update cancels out — downstream strata
    and the caller only ever see net changes relative to the pre-update
    state.
    """
    for predicate, facts in lost.items():
        added_bucket = pending_add.get(predicate)
        removed_bucket = pending_remove.setdefault(predicate, set())
        for fact in facts:
            if added_bucket and fact in added_bucket:
                added_bucket.discard(fact)
            else:
                removed_bucket.add(fact)
    for predicate, facts in gained.items():
        removed_bucket = pending_remove.get(predicate)
        added_bucket = pending_add.setdefault(predicate, set())
        for fact in facts:
            if removed_bucket and fact in removed_bucket:
                removed_bucket.discard(fact)
            else:
                added_bucket.add(fact)


def apply_delta(
    engine: Any,
    result: Any,
    added: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
    removed: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
) -> DeltaResult:
    """Maintain a retained chase result under extensional changes.

    ``result`` is an :class:`~repro.vadalog.engine.EvaluationResult`
    produced with ``retain_state=True`` (or its ``.state``).  The
    retained database is updated **in place**; the returned
    :class:`DeltaResult` lists every net per-predicate change,
    extensional changes included.

    Removals of facts that are not part of the extensional snapshot are
    ignored (counted in ``skipped_removals``): derived facts cannot be
    retracted, only their extensional premises can.
    """
    state = getattr(result, "state", result)
    if not isinstance(state, MaterializedState):
        raise EvaluationError(
            "apply_delta needs a result produced with retain_state=True "
            "(truncated runs retain no state)"
        )
    start = time.perf_counter()
    db = state.database
    tracer = engine.tracer
    governor = engine.governor
    if governor is not None:
        governor.begin()
    stats = result.stats if hasattr(result, "stats") else None
    local = EvaluationStats()
    delta_result = DeltaResult()

    add_request = _normalize(added)
    remove_request = _normalize(removed)

    span = (
        tracer.span(
            "incr.apply_delta",
            added=sum(len(f) for f in add_request.values()),
            removed=sum(len(f) for f in remove_request.values()),
        )
        if tracer is not None
        else None
    )
    try:
        # ---- extensional changes -------------------------------------
        pending_add: Dict[str, Set[Fact]] = {}
        pending_remove: Dict[str, Set[Fact]] = {}
        for predicate, facts in remove_request.items():
            edb_facts = state.edb.get(predicate)
            for fact in facts:
                if edb_facts and fact in edb_facts:
                    pending_remove.setdefault(predicate, set()).add(fact)
                else:
                    delta_result.skipped_removals += 1
        for predicate, facts in add_request.items():
            removed_bucket = pending_remove.get(predicate)
            for fact in facts:
                if removed_bucket and fact in removed_bucket:
                    # Removed and re-added in one delta: a net no-op.
                    removed_bucket.discard(fact)
                elif fact not in state.edb.get(predicate, ()):
                    pending_add.setdefault(predicate, set()).add(fact)

        for predicate, facts in pending_remove.items():
            edb_facts = state.edb.get(predicate)
            relation = db.relation(predicate)
            for fact in facts:
                relation.remove(fact)
                if edb_facts:
                    edb_facts.discard(fact)
                if state.support is not None:
                    state.support.discard((predicate, fact))
        applied_add: Dict[str, Set[Fact]] = {}
        for predicate, facts in pending_add.items():
            edb_bucket = state.edb.setdefault(predicate, set())
            new: Set[Fact] = set()
            for fact in facts:
                edb_bucket.add(fact)
                if db.add(predicate, fact):
                    new.add(fact)
            if new:
                applied_add[predicate] = new
        # Facts already derivable need no propagation, but still count
        # as extensional now; only genuinely-new facts seed the chase.
        pending_add = applied_add

        if not pending_add and not pending_remove:
            delta_result.strata_skipped = len(state.strata)
            return delta_result

        # ---- stratum-by-stratum maintenance --------------------------
        for index, stratum in enumerate(state.strata):
            add_keys = {p for p, facts in pending_add.items() if facts}
            rm_keys = {p for p, facts in pending_remove.items() if facts}
            mode = _classify_stratum(
                engine, state, stratum, add_keys, rm_keys, local
            )
            if mode == _SKIP:
                delta_result.strata_skipped += 1
                continue
            added_now: Dict[str, Set[Fact]] = {}
            removed_now: Dict[str, Set[Fact]] = {}
            if mode == _RECOMPUTE:
                try:
                    _recompute_stratum(
                        engine, state, stratum, index, db, local,
                        added_now, removed_now,
                    )
                except _BudgetStop as stop:
                    raise ResourceLimitError(
                        f"governor budget exceeded during incremental "
                        f"recompute of stratum {index}: {stop.violation}",
                        resource=stop.violation.resource,
                        limit=stop.violation.limit,
                        stats=local,
                    ) from stop
                delta_result.strata_recomputed += 1
            else:
                stratum_heads = _head_predicates(stratum.rules)
                pos_reads: Set[str] = set()
                for rule in stratum.rules:
                    pos_reads |= _positive_reads(rule)
                removal_seeds = {
                    p: facts
                    for p, facts in pending_remove.items()
                    if facts and (p in pos_reads or p in stratum_heads)
                }
                rederived: Dict[str, Set[Fact]] = {}
                if removal_seeds:
                    dred_span = (
                        tracer.span("incr.dred", stratum=index)
                        if tracer is not None
                        else None
                    )
                    try:
                        rederived = _deletion_pass(
                            engine, state, stratum, db, pending_remove,
                            local, added_now, removed_now, delta_result,
                        )
                    finally:
                        if dred_span is not None:
                            dred_span.set(
                                overdeleted=delta_result.overdeleted,
                                rederived=delta_result.rederived,
                            )
                            dred_span.__exit__(None, None, None)
                seeds: Dict[str, Set[Fact]] = {}
                for predicate, facts in pending_add.items():
                    if facts and predicate in pos_reads:
                        seeds.setdefault(predicate, set()).update(facts)
                for predicate, facts in rederived.items():
                    seeds.setdefault(predicate, set()).update(facts)
                _insertion_pass(
                    engine, state, stratum, db, seeds, local, added_now
                )
                delta_result.strata_incremental += 1
            if added_now or removed_now:
                _merge_net(pending_add, pending_remove, added_now, removed_now)
            if (added_now or removed_now) and index < len(state.per_stratum):
                state.refresh_stratum_snapshot(index)
            if governor is not None:
                violation = governor.check(local)
                if violation is not None:
                    raise ResourceLimitError(
                        str(violation),
                        resource=violation.resource,
                        limit=violation.limit,
                        stats=local,
                    )

        delta_result.added = {
            p: facts for p, facts in pending_add.items() if facts
        }
        delta_result.removed = {
            p: facts for p, facts in pending_remove.items() if facts
        }
        return delta_result
    finally:
        delta_result.elapsed_seconds = time.perf_counter() - start
        state.updates_applied += 1
        if stats is not None:
            stats.rule_firings += local.rule_firings
            stats.facts_derived += local.facts_derived
            stats.iterations += local.iterations
            stats.nulls_created += local.nulls_created
        if tracer is not None:
            if delta_result.overdeleted:
                tracer.count("incr.overdeleted", delta_result.overdeleted)
            if delta_result.rederived:
                tracer.count("incr.rederived", delta_result.rederived)
        if span is not None:
            span.set(
                strata_skipped=delta_result.strata_skipped,
                strata_incremental=delta_result.strata_incremental,
                strata_recomputed=delta_result.strata_recomputed,
                net_added=delta_result.total_added,
                net_removed=delta_result.total_removed,
            )
            span.__exit__(None, None, None)
