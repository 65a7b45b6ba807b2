"""Repeatable perf capture for the saturation → rewriting → materialization path.

``capture_perf`` runs the declared scenarios under one roof and emits
``BENCH_rewriting.json`` (``BENCH_smoke.json`` at smoke scale): wall times,
clauses generated/retained, the subsumption hit rate, and the interning hit
rate.  ``separation_families`` measures raw saturation throughput on the
exponential separation families of Propositions 5.14, 5.15 and 5.20,
``fulldr_comparison`` contrasts FullDR with the practical algorithms
(Appendix E), ``end_to_end`` rewrites once and materializes the fixpoint
(Table 2), and ``paper_figures`` records the rest of the paper's Section 7
evaluation: Table 1, Figures 4 and 5, and the subsumption and
structural-transformation ablations.  The ``skolem_chase`` and
``guarded_oracle`` scenarios additionally track the chase oracles, each
measuring its delta-driven engine against the retained pre-change loop in
the same process (recorded as ``speedup_vs_pre_change`` with a
``chase_plan`` stats block), and the ``churn`` scenario drives interleaved
add/retract streams through a live session, checking every op against full
re-materialization and recording the DRed counters in a ``dred`` stats
block.  The store-touching scenarios (``end_to_end``,
``incremental_updates``, ``churn``, ``demand_queries``) also record a
``fact_store`` block — the ID-encoded store's term-table size, row count,
index footprint, and encode/decode counters — and ``demand_queries`` adds a
``kb_segments`` block measuring the lazy ``repro-kb/v2`` segment tier (file
size, decode wall time, predicates loaded out of total after one demand
answer).  Every future change reruns the capture and compares against the
recorded trajectory; see the "Recording performance" section of ROADMAP.md.

Each scenario is one :class:`Scenario` declaration in :data:`SCENARIOS`:
its name, its ``capture_*`` function, the keyword arguments of its smoke
size, and its named :class:`Check` gates.  :func:`failed_checks` evaluates
the gates of every scenario a capture holds (plus :data:`CAPTURE_CHECKS` on
an unfiltered one); ``python -m repro perf`` prints each failing check by
name and exits 4.

The module also embeds the *pre-change* wall time of the separation-families
workload, measured on the unoptimized seed saturation loop, so the JSON
itself documents the speedup of the interning + indexed-lookup overhaul.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.interning import clear_intern_caches, clear_intern_tables, intern_stats
from ..rewriting.base import RewritingSettings, SaturationStatistics
from ..unification.solver import match_solver_stats, reset_match_solver_stats
from ..rewriting.exbdr import ExbDR
from ..rewriting.hypdr import HypDR
from ..rewriting.rewriter import rewrite
from ..rewriting.saturation import Saturation
from ..rewriting.skdr import SkDR
from ..workloads.families import (
    exbdr_blowup_family,
    fulldr_example_e3,
    hypdr_advantage_family,
    running_example,
    skdr_blowup_family,
)

#: Wall time of the separation-families workload (NS below, best of three
#: in-process repeats) measured on the seed's unoptimized saturation loop,
#: on the machine that produced the first BENCH_rewriting.json.  Kept here so
#: the emitted JSON can report the speedup of the hot-path overhaul.
PRE_CHANGE_SEPARATION_WALL_SECONDS = 0.1878

#: Materialization leg of the end-to-end workload (default scale, best of
#: three in-process captures) measured on the tuple-at-a-time engine that
#: preceded the compiled hash-join plans, on the machine that produced the
#: BENCH_rewriting.json recording the change.  Kept here so the emitted JSON
#: documents the set-at-a-time engine's speedup independently of the
#: (noisy, saturation-dominated) scenario wall time.
PRE_CHANGE_END_TO_END_MATERIALIZE_SECONDS = 0.1039

SEPARATION_NS: Tuple[int, ...] = (2, 3, 4, 5)
RAW_SETTINGS = RewritingSettings(use_subsumption=False, use_lookahead=False)

#: every scenario payload carries a ``status`` flag so a baseline comparison
#: can tell a genuinely slower run from one that newly finishes (or newly
#: times out) and therefore measures different work
STATUS_COMPLETED = "completed"
STATUS_TIMED_OUT = "timed_out"

SCHEMA = "bench-rewriting/v1"


def _accumulate(total: Dict[str, float], stats: SaturationStatistics) -> None:
    total["generated"] += stats.derived
    total["retained"] += stats.retained
    total["forward_checks"] += stats.forward_checks
    total["discarded_forward"] += stats.discarded_forward
    total["discarded_duplicate"] += stats.discarded_duplicate
    total["removed_backward"] += stats.removed_backward


def _new_totals() -> Dict[str, float]:
    return {
        "generated": 0,
        "retained": 0,
        "forward_checks": 0,
        "discarded_forward": 0,
        "discarded_duplicate": 0,
        "removed_backward": 0,
    }


def _finish_totals(total: Dict[str, float]) -> Dict[str, object]:
    checks = total["forward_checks"]
    result: Dict[str, object] = {key: int(value) for key, value in total.items()}
    result["subsumption_hit_rate"] = (
        round(total["discarded_forward"] / checks, 4) if checks else 0.0
    )
    return result


def capture_separation_families(
    ns: Sequence[int] = SEPARATION_NS, repeats: int = 5
) -> Dict[str, object]:
    """Raw saturation throughput on the exponential separation families."""
    combos = (
        ("P5.14", exbdr_blowup_family, (ExbDR, SkDR)),
        ("P5.15", skdr_blowup_family, (ExbDR, SkDR)),
        ("P5.20", hypdr_advantage_family, (SkDR, HypDR)),
    )
    best_wall: Optional[float] = None
    per_n: Dict[str, Dict[str, object]] = {}
    totals = _new_totals()
    for _attempt in range(max(1, repeats)):
        # every repeat starts from empty intern tables, so best-of-N measures
        # the cold saturation loop — the same conditions under which the
        # pre-change wall time was recorded — not warm-cache reruns
        clear_intern_tables()
        wall_start = time.perf_counter()
        attempt_per_n: Dict[str, Dict[str, object]] = {}
        attempt_totals = _new_totals()
        for n in ns:
            n_start = time.perf_counter()
            retained: Dict[str, int] = {}
            for label, family, algorithms in combos:
                tgds = family(n)
                for inference_cls in algorithms:
                    saturation = Saturation(inference_cls(RAW_SETTINGS))
                    result = saturation.run(tgds)
                    retained[f"{label}-{inference_cls.name}"] = result.worked_off_size
                    _accumulate(attempt_totals, result.statistics)
            attempt_per_n[str(n)] = {
                "wall_seconds": round(time.perf_counter() - n_start, 6),
                "clauses_retained": retained,
            }
        wall = time.perf_counter() - wall_start
        if best_wall is None or wall < best_wall:
            best_wall = wall
            per_n = attempt_per_n
            totals = attempt_totals
    # the embedded pre-change wall time was measured at SEPARATION_NS scale;
    # comparing a shrunken (smoke) run against it would be meaningless
    comparable = tuple(ns) == SEPARATION_NS and best_wall
    payload: Dict[str, object] = {
        "wall_seconds": round(best_wall or 0.0, 6),
        # the raw saturation loop runs without a time budget, so this
        # scenario always completes
        "status": STATUS_COMPLETED,
        "repeats": max(1, repeats),
        "ns": list(ns),
        "per_n": per_n,
        "clauses": _finish_totals(totals),
    }
    if comparable:
        payload["pre_change_wall_seconds"] = PRE_CHANGE_SEPARATION_WALL_SECONDS
        payload["speedup_vs_pre_change"] = round(
            PRE_CHANGE_SEPARATION_WALL_SECONDS / best_wall, 2
        )
        payload["pre_change_note"] = (
            "pre-change wall time was measured on the machine that produced "
            "the committed BENCH_rewriting.json; on other hardware compare "
            "captures with --baseline instead"
        )
    return payload


def capture_fulldr_comparison(timeout_seconds: float = 8.0) -> Dict[str, object]:
    """Appendix E: FullDR versus the practical algorithms on Examples 4.3 and E.3.

    Also records the constraint-propagating match solver's counters for the
    scenario (see :mod:`repro.unification.solver` for how to read the
    ``match_solver`` block) — FullDR's bounded-substitution enumeration is
    the solver's heaviest client.
    """
    inputs = {
        "example-4.3": running_example()[0],
        "example-E.3": fulldr_example_e3(),
    }
    settings = RewritingSettings(timeout_seconds=timeout_seconds)
    rows: Dict[str, Dict[str, object]] = {}
    totals = _new_totals()
    all_completed = True
    reset_match_solver_stats()
    wall_start = time.perf_counter()
    for input_id, tgds in inputs.items():
        per_algorithm: Dict[str, object] = {}
        for algorithm in ("fulldr", "exbdr", "skdr", "hypdr"):
            start = time.perf_counter()
            result = rewrite(tgds, algorithm=algorithm, settings=settings)
            elapsed = time.perf_counter() - start
            _accumulate(totals, result.statistics)
            all_completed = all_completed and result.completed
            per_algorithm[algorithm] = {
                "wall_seconds": round(elapsed, 6),
                "derived": result.statistics.derived,
                "retained": result.worked_off_size,
                "output_size": result.output_size,
                "completed": result.completed,
            }
        rows[input_id] = per_algorithm
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "timeout_seconds": timeout_seconds,
        "inputs": rows,
        "clauses": _finish_totals(totals),
        "match_solver": match_solver_stats(),
    }


#: plan-shape lists in the bench JSON are capped at this many entries so the
#: committed capture stays reviewable; the count of elided shapes is recorded
MAX_PLAN_SHAPES = 24


def _finish_join_plan(
    total: Dict[str, int],
    shapes: Sequence[str],
    plans_compiled: int,
) -> Dict[str, object]:
    """Assemble the ``join_plan`` stats block (see repro.datalog.plan docs)."""
    from ..datalog.plan import JoinPlanStats

    block: Dict[str, object] = JoinPlanStats.with_hit_rate(dict(total))
    block["plans_compiled"] = plans_compiled
    shapes = list(shapes)
    block["plan_shapes"] = shapes[:MAX_PLAN_SHAPES]
    if len(shapes) > MAX_PLAN_SHAPES:
        block["plan_shapes_elided"] = len(shapes) - MAX_PLAN_SHAPES
    return block


def _merge_fact_store_stats(
    total: Dict[str, int], stats: Mapping[str, int]
) -> None:
    """Accumulate one ``FactStore.stats()`` block into a scenario total.

    Stores are per-materialization, so the scenario-level ``fact_store``
    block sums the counters across every measured store and records how many
    contributed (``stores``) — per-store averages fall out by division.
    """
    total["stores"] = total.get("stores", 0) + 1
    for key, value in stats.items():
        total[key] = total.get(key, 0) + int(value)


def _suite(suite_size: int, max_axioms: int):
    """The ontology-suite inputs of the store-touching scenarios."""
    from ..workloads.ontology_suite import generate_suite

    return generate_suite(
        count=suite_size, seed=2022, min_axioms=12, max_axioms=max_axioms
    )


def _rewrite_suite(suite_size: int, max_axioms: int, timeout_seconds: float):
    """ExbDR-rewrite the suite: ``(completed, all_completed)``.

    ``completed`` pairs each suite item with its completed rewriting,
    largest output first, so ``completed[:top_k]`` takes the biggest
    programs.
    """
    settings = RewritingSettings(timeout_seconds=timeout_seconds)
    completed = []
    all_completed = True
    for item in _suite(suite_size, max_axioms):
        result = rewrite(item.tgds, algorithm="exbdr", settings=settings)
        all_completed = all_completed and result.completed
        if result.completed:
            completed.append((item, result))
    completed.sort(key=lambda pair: pair[1].output_size, reverse=True)
    return completed, all_completed


def _instance(item, fact_count: int):
    """The generated base instance of one suite item."""
    from ..workloads.instances import generate_instance

    return generate_instance(
        item.tgds,
        fact_count=fact_count,
        constant_count=max(50, fact_count // 10),
        seed=int(item.identifier),
    )


def capture_end_to_end(
    suite_size: int = 6,
    max_axioms: int = 60,
    top_k: int = 3,
    fact_count: int = 600,
    timeout_seconds: float = 8.0,
) -> Dict[str, object]:
    """Table 2: rewrite the largest ExbDR outputs once, materialize their fixpoints."""
    from ..datalog.engine import compiled_engine
    from ..datalog.plan import JoinPlanStats

    settings = RewritingSettings(timeout_seconds=timeout_seconds)
    wall_start = time.perf_counter()
    totals = _new_totals()
    completed = []
    all_completed = True
    rewrite_wall = 0.0
    for item in _suite(suite_size, max_axioms):
        start = time.perf_counter()
        result = rewrite(item.tgds, algorithm="exbdr", settings=settings)
        rewrite_wall += time.perf_counter() - start
        _accumulate(totals, result.statistics)
        all_completed = all_completed and result.completed
        if result.completed:
            completed.append((item, result))
    completed.sort(key=lambda pair: pair[1].output_size, reverse=True)
    rows = []
    materialize_wall = 0.0
    join_totals: Dict[str, int] = {}
    store_totals: Dict[str, int] = {}
    plan_shapes: List[str] = []
    plans_compiled = 0
    for item, rewriting in completed[:top_k]:
        instance = _instance(item, fact_count)
        engine = compiled_engine(rewriting.program())
        start = time.perf_counter()
        materialized = engine.materialize(instance)
        elapsed = time.perf_counter() - start
        materialize_wall += elapsed
        JoinPlanStats.merge_snapshot(join_totals, materialized.join_stats)
        _merge_fact_store_stats(store_totals, materialized.store.stats())
        plans_compiled += engine.compiled_plan_count()
        for shape in engine.plan_shapes():
            if shape not in plan_shapes:
                plan_shapes.append(shape)
        rows.append(
            {
                "input_id": item.identifier,
                "rule_count": rewriting.output_size,
                "input_facts": len(instance),
                "output_facts": len(materialized),
                "rounds": materialized.rounds,
                "wall_seconds": round(elapsed, 6),
            }
        )
    payload = {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "rewrite_wall_seconds": round(rewrite_wall, 6),
        "materialize_wall_seconds": round(materialize_wall, 6),
        "suite_size": suite_size,
        "top_k": top_k,
        "fact_count": fact_count,
        "rows": rows,
        "clauses": _finish_totals(totals),
        "join_plan": _finish_join_plan(join_totals, plan_shapes, plans_compiled),
        "fact_store": store_totals,
    }
    # the embedded pre-change time was measured at default scale; a shrunken
    # (smoke) run materializes a different workload entirely
    defaults = (suite_size, top_k, fact_count) == (6, 3, 600)
    if defaults and materialize_wall:
        payload["pre_change_materialize_wall_seconds"] = (
            PRE_CHANGE_END_TO_END_MATERIALIZE_SECONDS
        )
        payload["materialize_speedup_vs_pre_change"] = round(
            PRE_CHANGE_END_TO_END_MATERIALIZE_SECONDS / materialize_wall, 2
        )
        payload["pre_change_note"] = (
            "pre-change materialization wall time was measured on the machine "
            "that produced the committed BENCH_rewriting.json; on other "
            "hardware compare captures with --baseline instead"
        )
    return payload


def capture_incremental_updates(
    suite_size: int = 6,
    max_axioms: int = 60,
    top_k: int = 3,
    fact_count: int = 2000,
    delta_fraction: float = 0.01,
    repeats: int = 3,
    timeout_seconds: float = 8.0,
) -> Dict[str, object]:
    """Delta-update throughput of :class:`ReasoningSession` vs full rebuilds.

    For each instance, a small delta (``delta_fraction`` of the facts) is
    propagated through a live session (:meth:`ReasoningSession.add_facts`)
    and compared against re-materializing base+delta from scratch — the cost
    the one-shot API pays per update.  Consistency of the two fixpoints is
    verified once per instance before timing is trusted.
    """
    from ..datalog import DatalogProgram, ReasoningSession, materialize
    from ..datalog.engine import compiled_engine
    from ..datalog.plan import JoinPlanStats

    wall_start = time.perf_counter()
    completed, all_completed = _rewrite_suite(suite_size, max_axioms, timeout_seconds)
    rows = []
    full_total = 0.0
    delta_total = 0.0
    join_totals: Dict[str, int] = {}
    store_totals: Dict[str, int] = {}
    plan_shapes: List[str] = []
    plans_compiled = 0
    for item, rewriting in completed[:top_k]:
        program = DatalogProgram(rewriting.datalog_rules)
        instance = _instance(item, fact_count)
        facts = sorted(instance, key=str)
        delta_size = max(1, int(len(facts) * delta_fraction))
        base, delta = facts[:-delta_size], facts[-delta_size:]
        # the cost an update pays today: re-materialize everything
        full_seconds = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            full = materialize(program, facts)
            elapsed = time.perf_counter() - start
            if full_seconds is None or elapsed < full_seconds:
                full_seconds = elapsed
        # the session cost: propagate only the delta's consequences
        delta_seconds = None
        session_facts = None
        for _ in range(max(1, repeats)):
            session = ReasoningSession(program, base)  # setup not timed
            start = time.perf_counter()
            update = session.add_facts(delta)
            elapsed = time.perf_counter() - start
            if delta_seconds is None or elapsed < delta_seconds:
                delta_seconds = elapsed
            session_facts = session.facts()
        # delta-side join work of one propagation (the last repeat); the
        # session is warm here, so reading its store is free
        JoinPlanStats.merge_snapshot(join_totals, update.join_stats)
        _merge_fact_store_stats(store_totals, session.store.stats())
        engine = compiled_engine(program)
        plans_compiled += engine.compiled_plan_count()
        for shape in engine.plan_shapes():
            if shape not in plan_shapes:
                plan_shapes.append(shape)
        consistent = session_facts == full.facts()
        full_total += full_seconds
        delta_total += delta_seconds
        rows.append(
            {
                "input_id": item.identifier,
                "rule_count": rewriting.output_size,
                "base_facts": len(base),
                "delta_facts": delta_size,
                "output_facts": len(full),
                "full_seconds": round(full_seconds, 6),
                "delta_seconds": round(delta_seconds, 6),
                "speedup": round(full_seconds / delta_seconds, 2)
                if delta_seconds
                else None,
                "consistent": consistent,
            }
        )
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "fact_count": fact_count,
        "delta_fraction": delta_fraction,
        "repeats": max(1, repeats),
        "rows": rows,
        "join_plan": _finish_join_plan(join_totals, plan_shapes, plans_compiled),
        "fact_store": store_totals,
        "full_rematerialize_seconds": round(full_total, 6),
        "delta_update_seconds": round(delta_total, 6),
        "speedup_delta_vs_full": round(full_total / delta_total, 2)
        if delta_total
        else None,
        # deliberately False when nothing completed: an empty measurement
        # must not read as "verified consistent" downstream (a declared check)
        "all_consistent": bool(rows) and all(row["consistent"] for row in rows),
    }


def capture_churn(
    suite_size: int = 6,
    max_axioms: int = 60,
    top_k: int = 3,
    fact_count: int = 2000,
    churn_fraction: float = 0.01,
    op_count: int = 8,
    repeats: int = 3,
    timeout_seconds: float = 8.0,
) -> Dict[str, object]:
    """Interleaved add/retract churn: DRed sessions vs full re-materialization.

    For each instance an interleaved stream of ``op_count`` updates
    (alternating ``add_facts`` / ``retract_facts`` batches of
    ``churn_fraction`` of the instance) is applied to one live
    :class:`ReasoningSession` and, op by op, compared against
    re-materializing the *surviving* base facts from scratch — the cost the
    one-shot API pays to honor the same retraction.  Every op's fixpoint is
    checked for equality with the rebuild (feeding ``all_consistent``), so
    the recorded speedup is of two provably identical maintenance paths.
    The ``dred`` block accumulates the retraction-side counters: base facts
    retracted, candidates over-deleted, survivors re-derived, net facts
    removed, and over-deletion/re-derivation rounds.
    """
    from ..datalog import DatalogProgram, ReasoningSession, materialize

    wall_start = time.perf_counter()
    completed, all_completed = _rewrite_suite(suite_size, max_axioms, timeout_seconds)
    rows = []
    incremental_total = 0.0
    full_total = 0.0
    all_consistent = True
    store_totals: Dict[str, int] = {}
    dred_totals = {
        "retracted": 0,
        "overdeleted": 0,
        "rederived": 0,
        "net_removed": 0,
        "rounds": 0,
    }
    for item, rewriting in completed[:top_k]:
        program = DatalogProgram(rewriting.datalog_rules)
        instance = _instance(item, fact_count)
        facts = sorted(instance, key=str)
        chunk = max(1, int(len(facts) * churn_fraction))
        add_ops = max(1, op_count // 2)
        retract_ops = max(1, op_count - add_ops)
        held_out = facts[-chunk * add_ops :]
        base = facts[: -chunk * add_ops]
        # the op stream: alternate adding held-out chunks with retracting
        # chunks of the initial base facts (the streams are disjoint)
        ops: List[Tuple[str, List]] = []
        for index in range(max(add_ops, retract_ops)):
            if index < add_ops:
                ops.append(("add", held_out[index * chunk : (index + 1) * chunk]))
            if index < retract_ops:
                ops.append(("retract", base[index * chunk : (index + 1) * chunk]))
        incremental_seconds = None
        full_seconds = None
        instance_consistent = True
        instance_dred = None
        for _ in range(max(1, repeats)):
            session = ReasoningSession(program, base)  # setup not timed
            survivors = list(base)
            survivor_set = set(base)
            repeat_incremental = 0.0
            repeat_full = 0.0
            repeat_dred = dict.fromkeys(dred_totals, 0)
            for op, batch in ops:
                start = time.perf_counter()
                if op == "add":
                    session.add_facts(batch)
                else:
                    result = session.retract_facts(batch)
                    repeat_dred["retracted"] += result.retracted_facts
                    repeat_dred["overdeleted"] += result.overdeleted
                    repeat_dred["rederived"] += result.rederived
                    repeat_dred["net_removed"] += result.net_removed
                    repeat_dred["rounds"] += result.rounds
                repeat_incremental += time.perf_counter() - start
                # the one-shot cost of the same update: rebuild from the
                # surviving base facts
                if op == "add":
                    added = [fact for fact in batch if fact not in survivor_set]
                    survivors.extend(added)
                    survivor_set.update(added)
                else:
                    removed = set(batch)
                    survivors = [f for f in survivors if f not in removed]
                    survivor_set -= removed
                start = time.perf_counter()
                rebuilt = materialize(program, survivors)
                repeat_full += time.perf_counter() - start
                if session.facts() != rebuilt.facts():  # not timed
                    instance_consistent = False
            if incremental_seconds is None or repeat_incremental < incremental_seconds:
                incremental_seconds = repeat_incremental
            if full_seconds is None or repeat_full < full_seconds:
                full_seconds = repeat_full
            instance_dred = repeat_dred  # identical across repeats
        # store shape after the full op stream (last repeat's session, warm)
        _merge_fact_store_stats(store_totals, session.store.stats())
        for key, value in instance_dred.items():
            dred_totals[key] += value
        all_consistent = all_consistent and instance_consistent
        incremental_total += incremental_seconds
        full_total += full_seconds
        rows.append(
            {
                "input_id": item.identifier,
                "rule_count": rewriting.output_size,
                "base_facts": len(base),
                "ops": len(ops),
                "chunk_facts": chunk,
                "incremental_seconds": round(incremental_seconds, 6),
                "full_seconds": round(full_seconds, 6),
                "speedup": round(full_seconds / incremental_seconds, 2)
                if incremental_seconds
                else None,
                "consistent": instance_consistent,
            }
        )
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "fact_count": fact_count,
        "churn_fraction": churn_fraction,
        "op_count": op_count,
        "repeats": max(1, repeats),
        "rows": rows,
        "dred": dred_totals,
        "fact_store": store_totals,
        "incremental_seconds": round(incremental_total, 6),
        "full_rematerialize_seconds": round(full_total, 6),
        "speedup_churn_vs_full": round(full_total / incremental_total, 2)
        if incremental_total
        else None,
        # deliberately False when nothing completed: an empty measurement
        # must not read as "verified consistent" downstream (a declared check)
        "all_consistent": bool(rows) and all_consistent,
    }


def _chase_suite_inputs(suite_size: int, max_axioms: int, fact_count: int):
    """The shared workload of the chase scenarios: suite items + instances."""
    from ..workloads.instances import generate_instance
    from ..workloads.ontology_suite import generate_suite

    suite = generate_suite(
        count=suite_size, seed=2022, min_axioms=10, max_axioms=max_axioms
    )
    return [
        (
            item,
            generate_instance(
                item.tgds,
                fact_count=fact_count,
                constant_count=max(20, fact_count // 4),
                seed=int(item.identifier),
            ),
        )
        for item in suite
    ]


def _best_of(repeats: int, run, *args):
    """``(best_seconds, result_of_best_run)`` over ``repeats`` timed calls.

    Both the delta engine and its naive reference are timed through this
    helper with the *same* repeat count — best-of-N against a single run
    would systematically flatter whichever side repeats on a noisy machine.
    """
    best_seconds = None
    best_result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run(*args)
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_result = result
    return best_seconds, best_result


def _merge_chase_block(
    totals: Dict[str, int], snapshot: Optional[Dict[str, object]]
) -> Dict[str, int]:
    """Fold one run's chase counters into the scenario totals.

    Counters are additive across independent chase runs, except
    ``max_delta``: summing per-run maxima would fabricate a round size no
    run ever committed, so it aggregates by max.
    """
    from ..datalog.plan import JoinPlanStats

    snapshot = snapshot or {}
    prior_max = totals.pop("max_delta", 0)
    JoinPlanStats.merge_snapshot(totals, snapshot)
    totals["max_delta"] = max(prior_max, snapshot.get("max_delta", 0) or 0)
    return totals


def capture_skolem_chase(
    suite_size: int = 3,
    max_axioms: int = 22,
    fact_count: int = 150,
    max_term_depth: int = 2,
    repeats: int = 2,
) -> Dict[str, object]:
    """Depth-bounded Skolem-chase throughput: semi-naive plans vs naive loop.

    Saturates ontology-suite GTGD sets over generated base instances with the
    semi-naive plan-based engine (:meth:`SkolemChase.run`) and the retained
    naive loop (:meth:`SkolemChase.run_naive_reference`), each timed best of
    ``repeats`` — so ``speedup_vs_pre_change`` is a live same-machine,
    same-process measurement, not an embedded constant (and a conservative
    one: the retained loop reuses candidate domains across rounds, so it is
    somewhat faster than the true pre-change code; see the
    ``pre_change_note`` in the payload).  Fact-set equality of the two runs
    is recorded per row (``consistent``) and as the scenario-level
    ``all_consistent`` flag, which the scenario's declared checks and tests
    enforce — the capture itself never raises, so a broken run still yields
    an inspectable payload.  The merged per-run counters of the semi-naive
    engine are recorded as the ``chase_plan`` block (counters are summed
    across inputs except ``max_delta``, which is the maximum over them; see
    :mod:`repro.chase.plans` for how to read it).
    """
    from ..chase.skolem_chase import SkolemChase
    from ..datalog.plan import JoinPlanStats

    wall_start = time.perf_counter()
    rows = []
    semi_total = 0.0
    naive_total = 0.0
    chase_totals: Dict[str, int] = {}
    all_consistent = True
    for item, instance in _chase_suite_inputs(suite_size, max_axioms, fact_count):
        chase = SkolemChase(item.tgds, max_term_depth=max_term_depth)
        semi_seconds, result = _best_of(repeats, chase.run, instance)
        naive_seconds, reference = _best_of(
            repeats, chase.run_naive_reference, instance
        )
        consistent = (
            result.facts == reference.facts
            and result.saturated == reference.saturated
        )
        all_consistent = all_consistent and consistent
        _merge_chase_block(chase_totals, result.plan_stats)
        semi_total += semi_seconds
        naive_total += naive_seconds
        rows.append(
            {
                "input_id": item.identifier,
                "tgds": len(item.tgds),
                "input_facts": len(instance),
                "output_facts": len(result.facts),
                "saturated": result.saturated,
                "rounds": result.rounds,
                "semi_naive_seconds": round(semi_seconds, 6),
                "naive_seconds": round(naive_seconds, 6),
                "speedup": round(naive_seconds / semi_seconds, 2)
                if semi_seconds
                else None,
                "consistent": consistent,
            }
        )
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        # the chase runs without a time budget (the depth bound is what
        # truncates it), so this scenario always completes
        "status": STATUS_COMPLETED,
        "suite_size": suite_size,
        "fact_count": fact_count,
        "max_term_depth": max_term_depth,
        "repeats": max(1, repeats),
        "rows": rows,
        "chase_plan": JoinPlanStats.with_hit_rate(dict(chase_totals)),
        "semi_naive_seconds": round(semi_total, 6),
        "pre_change_naive_seconds": round(naive_total, 6),
        "speedup_vs_pre_change": round(naive_total / semi_total, 2)
        if semi_total
        else None,
        "pre_change_note": (
            "measured against the retained naive loop "
            "(SkolemChase.run_naive_reference) in this very capture, both "
            "sides best-of-repeats, so the ratio is same-machine by "
            "construction; the reference keeps the pre-change per-round "
            "structure but reuses candidate domains across rounds, making it "
            "faster than the true pre-change loop — the recorded speedup is "
            "a conservative lower bound"
        ),
        # deliberately False when nothing was measured: an empty run must not
        # read as "verified consistent" downstream
        "all_consistent": bool(rows) and all_consistent,
    }


def _run_worklist_oracle(tgds, instance):
    """One fresh worklist-engine saturation; returns (facts, stats snapshot)."""
    from ..chase.guarded_engine import GuardedChaseReasoner

    reasoner = GuardedChaseReasoner(tgds, max_types=500_000)
    facts = reasoner.entailed_base_facts(instance)
    return facts, reasoner.stats.snapshot()


def _run_reference_oracle(tgds, instance):
    """One fresh recursive-reference saturation; returns its base facts."""
    from ..chase.guarded_engine import ReferenceGuardedReasoner

    return ReferenceGuardedReasoner(tgds, max_types=500_000).entailed_base_facts(
        instance
    )


def capture_guarded_oracle(
    suite_size: int = 4,
    max_axioms: int = 24,
    fact_count: int = 110,
    repeats: int = 1,
) -> Dict[str, object]:
    """Guarded-oracle throughput: dirty-type worklist vs recursive re-walks.

    Saturates ontology-suite GTGD sets with the worklist
    :class:`GuardedChaseReasoner` and the retained pre-change
    :class:`ReferenceGuardedReasoner` (each timed best of ``repeats``, on a
    fresh reasoner per repeat), recording whether their entailed-base-fact
    sets agree (``all_consistent``, a declared check);
    ``speedup_vs_pre_change`` is a live same-machine measurement like the
    ``skolem_chase`` scenario's.  The worklist engine's counters (types
    closed vs reused, per-type delta rounds and sizes, trigger firings,
    cross-type imports — see
    :class:`repro.chase.guarded_engine.GuardedEngineStats`) form the
    ``chase_plan`` block (summed across inputs, except ``max_delta`` which
    aggregates by maximum).
    """
    wall_start = time.perf_counter()
    rows = []
    worklist_total = 0.0
    naive_total = 0.0
    chase_totals: Dict[str, int] = {}
    all_consistent = True
    for item, instance in _chase_suite_inputs(suite_size, max_axioms, fact_count):
        worklist_seconds, (facts, stats_snapshot) = _best_of(
            repeats, _run_worklist_oracle, item.tgds, instance
        )
        naive_seconds, expected = _best_of(
            repeats, _run_reference_oracle, item.tgds, instance
        )
        consistent = facts == expected
        all_consistent = all_consistent and consistent
        _merge_chase_block(chase_totals, stats_snapshot)
        worklist_total += worklist_seconds
        naive_total += naive_seconds
        rows.append(
            {
                "input_id": item.identifier,
                "tgds": len(item.tgds),
                "input_facts": len(instance),
                "entailed_base_facts": len(facts),
                "worklist_seconds": round(worklist_seconds, 6),
                "naive_seconds": round(naive_seconds, 6),
                "speedup": round(naive_seconds / worklist_seconds, 2)
                if worklist_seconds
                else None,
                "consistent": consistent,
            }
        )
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        # the oracle always terminates (type space is finite); no time budget
        "status": STATUS_COMPLETED,
        "suite_size": suite_size,
        "fact_count": fact_count,
        "repeats": max(1, repeats),
        "rows": rows,
        "chase_plan": dict(chase_totals),
        "worklist_seconds": round(worklist_total, 6),
        "pre_change_naive_seconds": round(naive_total, 6),
        "speedup_vs_pre_change": round(naive_total / worklist_total, 2)
        if worklist_total
        else None,
        "pre_change_note": (
            "the pre-change recursive engine is retained in-tree "
            "(ReferenceGuardedReasoner) and re-measured in this very capture "
            "with the same repeat count, so the speedup is same-machine by "
            "construction"
        ),
        "all_consistent": bool(rows) and all_consistent,
    }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sequence."""
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def capture_serving_throughput(
    suite_size: int = 3,
    max_axioms: int = 40,
    fact_count: int = 6000,
    clients: int = 8,
    queries_per_client: int = 32,
    distinct_queries: int = 6,
    mutations: int = 2,
    repeats: int = 2,
    timeout_seconds: float = 8.0,
) -> Dict[str, object]:
    """Concurrent serving throughput of :class:`repro.serve.ReasoningServer`.

    Boots an in-process server (inline worker tier, so the measurement is
    deterministic and free of pool cold-starts) over the largest completed
    ontology-suite rewriting, then drives ``clients`` concurrent clients
    issuing ``queries_per_client`` queries each from a pool of
    ``distinct_queries`` templates, with ``mutations`` retract/add ops
    interleaved mid-stream to exercise answer-cache invalidation.  Records
    per-request latency (``latency_ms`` with p50/p99), the answer-cache hit
    rate, the micro-batch size histogram, and the measured speedup over
    answering the *identical* request stream sequentially on one warm
    session (the cost ``serve-batch`` pays per query — no batching, no
    dedup, no cache).  Both sides run best-of-``repeats`` on a fresh
    server/session per repeat (the same fairness rule as :func:`_best_of`),
    with a ``gc.collect()`` before each timed run so heap pressure left by
    earlier scenarios in a full capture does not skew the event loop.
    Every concurrent response (from every repeat, not just the best one) is
    checked against a fresh single-threaded oracle at the generation the
    server stamped on it; ``stale_free`` records the outcome (a declared
    check — a cached answer surviving a retraction would flip it false).
    """
    import asyncio

    from ..api import KnowledgeBase
    from ..datalog.query import parse_query
    from ..logic.printer import format_fact
    from ..serve.protocol import encode_answers
    from ..serve.server import ReasoningServer, ServedKB

    wall_start = time.perf_counter()
    completed, all_completed = _rewrite_suite(suite_size, max_axioms, timeout_seconds)
    if not completed:
        return {
            "wall_seconds": round(time.perf_counter() - wall_start, 6),
            "status": STATUS_TIMED_OUT,
            "requests": 0,
            "stale_free": False,
        }
    item, rewriting = completed[0]
    kb = KnowledgeBase(tgds=tuple(item.tgds), rewriting=rewriting)
    instance = _instance(item, fact_count)
    facts = sorted(instance, key=str)
    predicates = sorted(
        {fact.predicate for fact in facts}, key=lambda pred: pred.name
    )
    # join queries first: they are the representative (and expensive) case,
    # so the pool measures amortization of real work, not just scans
    binary = [pred for pred in predicates if pred.arity == 2]
    query_texts = [
        f"{first.name}(?x, ?y), {second.name}(?y, ?z)"
        for first, second in zip(binary, binary[1:])
    ]
    query_texts.extend(
        f"{pred.name}({', '.join(f'?x{i}' for i in range(pred.arity))})"
        for pred in predicates
    )
    query_texts = query_texts[:distinct_queries]
    # the mutation payload: a small chunk of base facts retracted and
    # re-added — sized as an invalidation event (the thing the cache must
    # survive), not bulk churn, which the ``churn`` scenario measures
    chunk = facts[: max(1, len(facts) // 500)]
    chunk_text = "\n".join(format_fact(fact) for fact in chunk)
    total_requests = clients * queries_per_client

    async def _drive():
        server = ReasoningServer([ServedKB("bench", kb, facts)], workers=0)
        await server.start()
        await server.warm()  # materialize before the clock starts
        handles = [server.local_client() for _ in range(clients)]
        latencies: List[float] = []
        observed: List[Tuple[str, int, object]] = []

        async def client_task(index: int, handle) -> None:
            for round_no in range(queries_per_client):
                text = query_texts[(index + round_no) % len(query_texts)]
                start = time.perf_counter()
                response = await handle.query(text)
                latencies.append(time.perf_counter() - start)
                observed.append(
                    (text, response["generation"], response["answers"])
                )

        async def writer_task(handle) -> None:
            for op_no in range(mutations):
                threshold = total_requests * (op_no + 1) // (mutations + 1)
                while len(latencies) < threshold:
                    await asyncio.sleep(0)
                if op_no % 2 == 0:
                    await handle.retract_facts(chunk_text)
                else:
                    await handle.add_facts(chunk_text)

        concurrent_start = time.perf_counter()
        await asyncio.gather(
            *(client_task(i, handle) for i, handle in enumerate(handles)),
            writer_task(handles[0]),
        )
        concurrent_wall = time.perf_counter() - concurrent_start
        stats = await handles[0].stats()
        await server.shutdown()
        return latencies, observed, stats, concurrent_wall

    import gc

    best = None
    all_observed: List[Tuple[str, int, object]] = []
    for _ in range(max(1, repeats)):
        gc.collect()
        latencies, observed, stats, concurrent_wall = asyncio.run(_drive())
        all_observed.extend(observed)
        if best is None or concurrent_wall < best[0]:
            best = (concurrent_wall, latencies, stats)
    concurrent_wall, latencies, stats = best
    observed = all_observed

    # the sequential reference: the identical logical stream (every query
    # request plus the same mutations at the same points) answered one at a
    # time on a single warm session, the way serve-batch would
    queries = {text: parse_query(text) for text in query_texts}
    schedule: List[Tuple[str, str]] = []
    for round_no in range(queries_per_client):
        for index in range(clients):
            schedule.append(("query", query_texts[(index + round_no) % len(query_texts)]))
    for op_no in range(mutations):
        position = len(schedule) * (op_no + 1) // (mutations + 1) + op_no
        schedule.insert(position, ("retract" if op_no % 2 == 0 else "add", None))
    sequential_wall = None
    for _ in range(max(1, repeats)):
        session = kb.session(facts)
        len(session)  # force the materialization before the clock starts
        gc.collect()
        sequential_start = time.perf_counter()
        for kind, text in schedule:
            if kind == "query":
                session.answer(queries[text])
            elif kind == "retract":
                session.retract_facts(chunk)
            else:
                session.add_facts(chunk)
        elapsed = time.perf_counter() - sequential_start
        if sequential_wall is None or elapsed < sequential_wall:
            sequential_wall = elapsed

    # stale-answer audit: every response must equal a fresh single-threaded
    # session's answers at the generation the server stamped on it
    generations = sorted({generation for _, generation, _ in observed})
    oracle: Dict[int, Dict[str, object]] = {}
    for generation in generations:
        state = list(facts)
        for op_no in range(min(generation, mutations)):
            if op_no % 2 == 0:
                removed = set(chunk)
                state = [fact for fact in state if fact not in removed]
            else:
                state.extend(chunk)
        answers = kb.answer_many(list(queries.values()), state)
        oracle[generation] = {
            text: encode_answers(answer_set)
            for text, answer_set in zip(queries, answers)
        }
    stale_free = bool(observed) and all(
        answers == oracle[generation][text]
        for text, generation, answers in observed
    )

    latencies.sort()
    cache_stats = stats["answer_cache"]
    batch_stats = stats["batching"]
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "input_id": item.identifier,
        "rule_count": rewriting.output_size,
        "base_facts": len(facts),
        "clients": clients,
        "queries_per_client": queries_per_client,
        "distinct_queries": len(query_texts),
        "mutations": mutations,
        "repeats": max(1, repeats),
        "requests": total_requests,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000, 3),
            "p99": round(_percentile(latencies, 0.99) * 1000, 3),
            "mean": round(sum(latencies) / len(latencies) * 1000, 3),
            "max": round(latencies[-1] * 1000, 3),
        }
        if latencies
        else {},
        "requests_per_second": round(total_requests / concurrent_wall, 1)
        if concurrent_wall
        else None,
        "serving": {
            "cache_hit_rate": cache_stats["hit_rate"],
            "cache_hits": cache_stats["hits"],
            "cache_misses": cache_stats["misses"],
            "stale_drops": cache_stats["stale_drops"],
            "invalidations": cache_stats["invalidations"],
            "batches": batch_stats["batches"],
            "evaluated": batch_stats["evaluated"],
            "dedup_saved": batch_stats["dedup_saved"],
            "max_batch_size": batch_stats["max_batch_size"],
            "batch_size_histogram": batch_stats["batch_size_histogram"],
            "workers": stats["workers"]["mode"],
        },
        # the fault-tolerance ledger: a clean perf run must report zero
        # recoveries (declared checks — a nonzero counter here means the
        # measurement itself was degraded by restarts/sheds/timeouts)
        "resilience": dict(stats["resilience"]),
        "concurrent_wall_seconds": round(concurrent_wall, 6),
        "sequential_wall_seconds": round(sequential_wall, 6),
        "speedup_batched_vs_sequential": round(sequential_wall / concurrent_wall, 2)
        if concurrent_wall
        else None,
        # deliberately False when nothing was observed: an empty run must not
        # read as "verified stale-free" downstream (a declared check)
        "stale_free": stale_free,
    }


def capture_demand_queries(
    suite_size: int = 3,
    max_axioms: int = 40,
    fact_count: int = 4000,
    query_count: int = 5,
    repeats: int = 2,
    timeout_seconds: float = 8.0,
) -> Dict[str, object]:
    """Cold bound point-queries: goal-directed (magic sets) vs full materialize.

    Takes the largest completed ontology-suite rewriting, generates a base
    instance, and builds ``query_count`` *bound point queries* — one IDB
    predicate each, first argument bound to an instance constant — the
    workload the demand transformation exists for.  Each query is answered
    two ways from a completely cold start, best of ``repeats`` with a fresh
    session per run (the same fairness rule as :func:`_best_of`):

    * **demand** — a deferred session (``defer_materialization=True``)
      answered with ``QueryOptions(strategy="demand")``, so only the
      magic-restricted fragment of the fixpoint is ever computed;
    * **materialized** — a fresh session that pays the full fixpoint before
      evaluating the same query, the cost a cold ``serve-batch`` pays today.

    ``speedup_demand_vs_materialized`` is the ratio of the summed best
    times.  Answer-set equality of the two paths is recorded per row
    (``agreement``) and as the scenario-level flag — deliberately ``False``
    when no query was measured, so an empty run cannot read as "verified"
    downstream (a declared check).  The ``magic`` block aggregates the
    per-query :class:`repro.datalog.magic.DemandReport` counters:
    transform-shape counts (``adorned_rules``/``magic_rules``/``copy_rules``,
    max over queries — they describe rewritten programs, not work), summed
    ``magic_facts``, and how many predicates the demand runs touched out of
    the program total (see the docstring of :mod:`repro.datalog.magic` for
    how to read each counter).

    Two untimed instrumentation blocks ride along: ``fact_store`` holds the
    ID-encoded store's counters after one full materialization
    (:meth:`repro.datalog.store.FactStore.stats`), and ``kb_segments``
    records a ``repro-kb/v2`` save → cold-load round trip — file size,
    segment-decode wall time, and ``predicates_loaded`` out of
    ``total_predicates`` after one demand-driven answer (strictly fewer
    loaded than total is the lazy tier working).
    """
    import gc

    from ..api import KnowledgeBase
    from ..datalog.magic import demand_answer
    from ..datalog.query import QueryOptions, parse_query

    wall_start = time.perf_counter()
    completed, all_completed = _rewrite_suite(suite_size, max_axioms, timeout_seconds)
    if not completed:
        return {
            "wall_seconds": round(time.perf_counter() - wall_start, 6),
            "status": STATUS_TIMED_OUT,
            "queries": 0,
            "agreement": False,
        }
    item, rewriting = completed[0]
    kb = KnowledgeBase(tgds=tuple(item.tgds), rewriting=rewriting)
    instance = _instance(item, fact_count)
    facts = tuple(sorted(instance, key=str))
    # bound point queries: one IDB atom, first argument a constant that
    # occurs in the instance — the access pattern magic sets reward
    idb = sorted(
        (pred for pred in kb.program.idb_predicates() if pred.arity >= 1),
        key=lambda pred: (pred.name, pred.arity),
    )
    constants = sorted(
        {arg for fact in facts for arg in fact.args if arg.is_ground}, key=str
    )
    if not idb or not constants:
        return {
            "wall_seconds": round(time.perf_counter() - wall_start, 6),
            "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
            "queries": 0,
            "agreement": False,
        }
    query_texts = []
    for index in range(query_count):
        pred = idb[index % len(idb)]
        constant = constants[(index * 7) % len(constants)]
        free = [f"?x{position}" for position in range(1, pred.arity)]
        query_texts.append(f"{pred.name}({', '.join([str(constant)] + free)})")
    queries = [parse_query(text) for text in query_texts]

    def run_demand(query):
        session = kb.session(facts, defer_materialization=True)
        return session.answer(query, options=QueryOptions(strategy="demand"))

    def run_materialized(query):
        session = kb.session(facts)  # pays the full fixpoint
        return session.answer(query, options=QueryOptions(strategy="materialized"))

    rows = []
    demand_total = 0.0
    materialized_total = 0.0
    magic_totals: Dict[str, int] = {}
    all_agree = True
    for text, query in zip(query_texts, queries):
        gc.collect()
        demand_seconds, demand_answers = _best_of(repeats, run_demand, query)
        gc.collect()
        materialized_seconds, full_answers = _best_of(
            repeats, run_materialized, query
        )
        agree = demand_answers == full_answers
        all_agree = all_agree and agree
        demand_total += demand_seconds
        materialized_total += materialized_seconds
        # one untimed demand run for the transform/derivation counters (the
        # timed runs go through the session path users actually hit)
        report = demand_answer(kb.program, facts, query).report.as_dict()
        for key in ("adorned_rules", "magic_rules", "copy_rules"):
            magic_totals[key] = max(magic_totals.get(key, 0), report[key])
        magic_totals["magic_facts"] = (
            magic_totals.get("magic_facts", 0) + report["magic_facts"]
        )
        magic_totals["predicates_touched"] = max(
            magic_totals.get("predicates_touched", 0), report["predicates_touched"]
        )
        magic_totals["predicates_total"] = report["predicates_total"]
        rows.append(
            {
                "query": text,
                "answers": len(demand_answers),
                "demand_seconds": round(demand_seconds, 6),
                "materialized_seconds": round(materialized_seconds, 6),
                "speedup": round(materialized_seconds / demand_seconds, 2)
                if demand_seconds
                else None,
                "agreement": agree,
                "magic": report,
            }
        )
    # untimed instrumentation: one warm session records the materialized
    # store's ID-encoded shape (term-table size, rows, index footprint)...
    fact_store: Dict[str, int] = {}
    _merge_fact_store_stats(fact_store, kb.session(facts).store.stats())
    # ...and a save → cold-load round trip records the segment tier: the KB
    # is written with its facts as repro-kb/v2, reopened, and the first
    # bound query answered on demand so only the probed predicates' row
    # segments ever decode
    import os
    import tempfile

    handle, kb_path = tempfile.mkstemp(suffix=".json", prefix="repro-kb-")
    os.close(handle)
    try:
        kb.save(kb_path, facts=facts)
        file_bytes = os.path.getsize(kb_path)
        reloaded = KnowledgeBase.load(kb_path)
        segments = reloaded.fact_segments
        cold = reloaded.session(segments, defer_materialization=True)
        cold.answer(queries[0], options=QueryOptions(strategy="demand"))
        kb_segments: Dict[str, object] = {"file_bytes": file_bytes}
        kb_segments.update(segments.stats())
    finally:
        os.unlink(kb_path)
    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "input_id": item.identifier,
        "rule_count": rewriting.output_size,
        "base_facts": len(facts),
        "queries": len(rows),
        "repeats": max(1, repeats),
        "demand_seconds": round(demand_total, 6),
        "materialized_seconds": round(materialized_total, 6),
        "speedup_demand_vs_materialized": round(
            materialized_total / demand_total, 2
        )
        if demand_total
        else None,
        "magic": magic_totals,
        "fact_store": fact_store,
        "kb_segments": kb_segments,
        # deliberately False when nothing was measured: an empty run must
        # not read as "demand ≡ materialized verified" downstream
        "agreement": bool(rows) and all_agree,
        "rows": rows,
    }


#: the algorithms of the paper's evaluation (the KAON2 baseline joins Figure 4)
PAPER_ALGORITHMS: Tuple[str, ...] = ("exbdr", "skdr", "hypdr")

#: Figure 5 multiplies every relation's arity by this factor, as the paper
#: does (arity-two ontology relations become arity-ten ones)
FIGURE5_ARITY_FACTOR = 5


def _figure_blocks(records, prefix: str) -> Dict[str, object]:
    """One figure of the paper (Figure 4 or 5) from its run records.

    ``prefix`` maps every algorithm to its :func:`summarize` row (the
    figure's metric table); ``prefix_cactus`` to the sorted times of its
    processed inputs (the x-th entry is the time of the x-th fastest, the
    cactus plot); ``prefix_slowdown[X][Y]`` counts the inputs on which
    ``time(Y)/time(X) >= 10`` and ``prefix_both_fail[X][Y]`` those both
    timed out on — the two pairwise matrices, one column per X.
    """
    from .stats import both_fail_matrix, cactus_series, pairwise_slowdown_matrix, summarize

    summaries = {summary.algorithm: summary.as_dict() for summary in summarize(records)}
    for row in summaries.values():
        del row["algorithm"]
    algorithms = list(summaries)
    slowdown = pairwise_slowdown_matrix(records, factor=10.0)
    both_fail = both_fail_matrix(records)
    return {
        prefix: summaries,
        f"{prefix}_cactus": {
            algorithm: [round(seconds, 4) for _, seconds in series]
            for algorithm, series in sorted(cactus_series(records).items())
        },
        f"{prefix}_slowdown": {
            faster: {slower: slowdown.get((slower, faster)) for slower in algorithms}
            for faster in algorithms
        },
        f"{prefix}_both_fail": {
            right: {left: both_fail[(left, right)] for left in algorithms}
            for right in algorithms
        },
    }


def capture_paper_figures(
    suite_size: int = 18,
    max_axioms: int = 180,
    timeout_seconds: float = 8.0,
    blowup_inputs: int = 10,
    ablation_inputs: int = 8,
    structural_inputs: int = 6,
) -> Dict[str, object]:
    """The paper's Section 7 evaluation on the synthetic ontology suite.

    * ``table1`` — Table 1, min/max/avg/median full and non-full TGDs per
      input (:func:`repro.workloads.ontology_suite.suite_statistics`);
    * ``figure4*`` — Figure 4, ExbDR/SkDR/HypDR and the KAON2-style baseline
      over the whole suite (see :func:`_figure_blocks` for the four
      fields), plus ``figure4_unprocessed_by_all``, the inputs no algorithm
      finished within ``timeout_seconds``;
    * ``figure5*`` — Figure 5, ExbDR/SkDR/HypDR on the ``blowup_inputs``
      smallest inputs with their relation arity multiplied by
      :data:`FIGURE5_ARITY_FACTOR` (KAON2 only handles arity two), plus
      ``figure5_all_guarded``, whether the blown-up TGDs stayed guarded;
    * ``ablation_subsumption`` — Section 7.2, derived clauses and timeouts
      per algorithm on the ``ablation_inputs`` smallest inputs with
      redundancy elimination on and off;
    * ``ablation_structural`` — Section 7.2, SkDR/HypDR time and derived
      clauses on ``structural_inputs`` ontologies rich in nested
      existentials, before and after KAON2's structural transformation.

    Every run gets the same per-input ``timeout_seconds``; ``status`` is
    ``timed_out`` when any of them hit it.
    """
    from dataclasses import replace

    from ..dl.structural import structural_transformation
    from ..dl.translate import translate_ontology
    from ..logic.tgd import all_guarded
    from ..workloads.blowup import blow_up_arity
    from ..workloads.ontology_suite import OntologyProfile, generate_input, suite_statistics
    from .runner import BenchmarkRunner
    from .stats import inputs_unprocessed_by_all

    wall_start = time.perf_counter()
    suite = _suite(suite_size, max_axioms)
    smallest = sorted(suite, key=lambda item: item.size)
    figure4 = BenchmarkRunner(timeout_seconds, include_kaon2=True).run_suite(suite)
    blown_up = tuple(
        replace(
            item,
            identifier=f"blowup-{item.identifier}",
            tgds=blow_up_arity(
                item.tgds,
                factor=FIGURE5_ARITY_FACTOR,
                extra_atom_probability=0.3,
                seed=index,
            ),
        )
        for index, item in enumerate(smallest[:blowup_inputs])
    )
    figure5 = BenchmarkRunner(timeout_seconds, include_kaon2=False).run_suite(blown_up)
    all_completed = not any(record.timed_out for record in figure4 + figure5)

    def run(tgds, algorithm, **settings):
        nonlocal all_completed
        start = time.perf_counter()
        result = rewrite(
            tgds,
            algorithm=algorithm,
            settings=RewritingSettings(timeout_seconds=timeout_seconds, **settings),
        )
        all_completed = all_completed and result.completed
        return result, time.perf_counter() - start

    subsumption: Dict[str, Dict[str, object]] = {}
    for algorithm in PAPER_ALGORITHMS:
        row = dict.fromkeys(
            ("derived_with", "derived_without", "timeouts_with", "timeouts_without"), 0
        )
        for item in smallest[:ablation_inputs]:
            for suffix, use_subsumption in (("with", True), ("without", False)):
                result, _ = run(item.tgds, algorithm, use_subsumption=use_subsumption)
                row[f"derived_{suffix}"] += result.statistics.derived
                row[f"timeouts_{suffix}"] += int(not result.completed)
        row["blowup_factor"] = round(row["derived_without"] / max(row["derived_with"], 1), 2)
        subsumption[algorithm] = row

    nested = [
        generate_input(
            OntologyProfile(
                class_count=20 + 6 * index,
                property_count=6,
                axiom_count=40 + 20 * index,
                existential_fraction=0.35,
                nested_existential_fraction=0.3,
                seed=900 + index,
            ),
            identifier=f"nested-{index:02d}",
        )
        for index in range(structural_inputs)
    ]
    structural: Dict[str, Dict[str, object]] = {}
    for algorithm in ("skdr", "hypdr"):
        totals = dict.fromkeys(("raw", "transformed"), 0.0)
        derived = dict.fromkeys(("raw", "transformed"), 0)
        for item in nested:
            transformed = translate_ontology(structural_transformation(item.ontology))
            for kind, tgds in (("raw", item.tgds), ("transformed", transformed)):
                result, elapsed = run(tgds, algorithm)
                totals[kind] += elapsed
                derived[kind] += result.statistics.derived
        structural[algorithm] = {
            "seconds_raw": round(totals["raw"], 3),
            "seconds_transformed": round(totals["transformed"], 3),
            "derived_raw": derived["raw"],
            "derived_transformed": derived["transformed"],
            "speedup": round(totals["raw"] / max(totals["transformed"], 1e-9), 2),
        }

    return {
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "status": STATUS_COMPLETED if all_completed else STATUS_TIMED_OUT,
        "suite_size": suite_size,
        "timeout_seconds": timeout_seconds,
        "figure5_arity_factor": FIGURE5_ARITY_FACTOR,
        "table1": {
            kind: {key: round(value, 2) for key, value in block.items()}
            for kind, block in suite_statistics(suite).items()
        },
        **_figure_blocks(figure4, "figure4"),
        "figure4_unprocessed_by_all": len(inputs_unprocessed_by_all(figure4)),
        **_figure_blocks(figure5, "figure5"),
        "figure5_all_guarded": all(all_guarded(item.tgds) for item in blown_up),
        "ablation_subsumption": subsumption,
        "ablation_structural": structural,
    }


@dataclass(frozen=True)
class Check:
    """A named gate on one captured payload: ``test`` must return truthy.

    A check whose ``test`` raises on a missing or malformed field fails
    rather than crashing the capture, so a scenario that measured nothing
    reports which gates it could not meet.
    """

    name: str
    test: Callable[[Mapping[str, Any]], object]

    def holds(self, payload: Mapping[str, Any]) -> bool:
        try:
            return bool(self.test(payload))
        except (LookupError, TypeError, AttributeError):
            return False


def _at(payload: Mapping[str, Any], path: str) -> Any:
    """The value at a dotted ``path`` (``"dred.retracted"``) of a payload."""
    value: Any = payload
    for key in path.split("."):
        value = value[key]
    return value


def _truthy(path: str) -> Check:
    """``path`` is non-empty (a list of rows) or true (a flag)."""
    return Check(path, lambda payload: _at(payload, path))


def _is_true(path: str) -> Check:
    return Check(f"{path} is True", lambda payload: _at(payload, path) is True)


def _above(path: str, floor: float = 0) -> Check:
    return Check(f"{path} > {floor}", lambda payload: _at(payload, path) > floor)


def _at_least(path: str, floor: float) -> Check:
    return Check(f"{path} >= {floor}", lambda payload: _at(payload, path) >= floor)


def _zero(path: str) -> Check:
    return Check(f"{path} == 0", lambda payload: _at(payload, path) == 0)


def _not_none(path: str) -> Check:
    return Check(f"{path} is not None", lambda payload: _at(payload, path) is not None)


#: the hash-join pipelines actually ran: executed batches and plan shapes
_JOIN_PLAN_CHECKS = (_above("join_plan.batches"), _truthy("join_plan.plan_shapes"))
#: the scenario ran on the ID-encoded store: encoded rows, live term table
_FACT_STORE_CHECKS = (
    _above("fact_store.rows"),
    _above("fact_store.term_table_size"),
    _above("fact_store.encode_calls"),
)
#: a delta-driven chase engine agreed with its retained naive reference and
#: actually ran delta rounds
_CHASE_CHECKS = (
    _truthy("rows"),
    _truthy("all_consistent"),
    _above("chase_plan.rounds"),
    _not_none("speedup_vs_pre_change"),
)


def _separation_grows(label: str, over: str, under: str) -> Check:
    """Proposition ``label``: ``over`` retains ever more clauses than ``under``.

    The ratio of the two algorithms' retained clauses on the family must be
    larger at the last ``n`` than at the first.
    """

    def test(payload: Mapping[str, Any]) -> bool:
        ratios = [
            row["clauses_retained"][f"{label}-{over}"]
            / max(row["clauses_retained"][f"{label}-{under}"], 1)
            for row in payload["per_n"].values()
        ]
        return ratios[-1] > ratios[0]

    return Check(f"per_n: {label}-{over} / {label}-{under} grows with n", test)


def _fulldr_derives_most(payload: Mapping[str, Any]) -> bool:
    rows = payload["inputs"].values()
    return sum(row["fulldr"]["derived"] for row in rows) > sum(
        min(row[algorithm]["derived"] for algorithm in PAPER_ALGORITHMS) for row in rows
    )


def _figure4_row_checks(algorithm: str) -> Tuple[Check, ...]:
    """Figure 4 sanity for one of the paper's algorithms."""

    def row(payload: Mapping[str, Any]) -> Mapping[str, Any]:
        return payload["figure4"][algorithm]

    return (
        Check(
            f"figure4.{algorithm}.processed_inputs >= failed_inputs",
            lambda payload: row(payload)["processed_inputs"]
            >= row(payload)["failed_inputs"],
        ),
        Check(
            f"figure4.{algorithm}.max_blowup < 20",
            lambda payload: row(payload)["max_blowup"] < 20,
        ),
    )


@dataclass(frozen=True)
class Scenario:
    """One recorded perf scenario: how to capture it and what must hold.

    ``smoke`` holds the keyword arguments that shrink ``capture`` to a
    seconds-long run (``perf --smoke``); ``checks`` are the scenario's gates,
    evaluated on every capture that includes it (see :func:`failed_checks`).
    Every scenario additionally checks ``wall_seconds > 0``.
    """

    name: str
    capture: Callable[..., Dict[str, object]]
    smoke: Mapping[str, object]
    checks: Tuple[Check, ...] = ()

    def run(self, smoke: bool) -> Dict[str, object]:
        return self.capture(**(self.smoke if smoke else {}))


#: the recorded scenarios, in capture order; ``perf --scenario NAME`` (and the
#: ``scenarios=`` parameter of :func:`capture_perf`) accepts their names
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        "separation_families",
        capture_separation_families,
        dict(ns=(2, 3), repeats=1),
        (
            _separation_grows("P5.14", "ExbDR", "SkDR"),
            _separation_grows("P5.15", "SkDR", "ExbDR"),
            _separation_grows("P5.20", "SkDR", "HypDR"),
        ),
    ),
    Scenario(
        "fulldr_comparison",
        capture_fulldr_comparison,
        dict(timeout_seconds=2.0),
        (
            Check(
                "inputs: FullDR derived > best other derived (summed)",
                _fulldr_derives_most,
            ),
        ),
    ),
    Scenario(
        "end_to_end",
        capture_end_to_end,
        dict(suite_size=2, max_axioms=24, top_k=1, fact_count=150),
        (
            # the fixpoint contains its input and, on these recursive
            # inputs, strictly extends it
            Check(
                "rows: output_facts >= input_facts",
                lambda payload: all(
                    row["output_facts"] >= row["input_facts"] for row in payload["rows"]
                ),
            ),
            Check(
                "rows: some output_facts > input_facts",
                lambda payload: any(
                    row["output_facts"] > row["input_facts"] for row in payload["rows"]
                ),
            ),
        )
        + _JOIN_PLAN_CHECKS
        + _FACT_STORE_CHECKS,
    ),
    Scenario(
        "incremental_updates",
        capture_incremental_updates,
        dict(suite_size=2, max_axioms=24, top_k=1, fact_count=1000, repeats=2),
        (
            _truthy("rows"),
            _truthy("all_consistent"),
            # machine-independent: if delta seeding breaks and falls back to
            # near-full work, this ratio collapses towards 1 (50-90x healthy)
            _at_least("speedup_delta_vs_full", 5),
        )
        + _JOIN_PLAN_CHECKS
        + _FACT_STORE_CHECKS,
    ),
    Scenario(
        "churn",
        capture_churn,
        dict(suite_size=2, max_axioms=24, top_k=1, fact_count=600, op_count=4, repeats=1),
        (
            _truthy("rows"),
            _truthy("all_consistent"),
            _above("dred.retracted"),
            _above("dred.rounds"),
            # conservative floor; ~5x when healthy at smoke scale
            _at_least("speedup_churn_vs_full", 2),
        )
        + _FACT_STORE_CHECKS,
    ),
    Scenario(
        "skolem_chase",
        capture_skolem_chase,
        dict(suite_size=2, max_axioms=14, fact_count=60, repeats=1),
        _CHASE_CHECKS + (_above("chase_plan.probes"),),
    ),
    Scenario(
        "guarded_oracle",
        capture_guarded_oracle,
        dict(suite_size=2, max_axioms=14, fact_count=40),
        _CHASE_CHECKS + (_above("chase_plan.types_closed"),),
    ),
    Scenario(
        "serving_throughput",
        capture_serving_throughput,
        dict(
            suite_size=2,
            max_axioms=24,
            fact_count=200,
            clients=4,
            queries_per_client=4,
            distinct_queries=4,
        ),
        # no speedup floor: at smoke scale dispatch overhead dominates
        (
            _is_true("stale_free"),
            _above("requests"),
            _above("serving.cache_hit_rate"),
            _above("serving.batches"),
            Check(
                "latency_ms.p99 >= latency_ms.p50",
                lambda payload: payload["latency_ms"]["p99"]
                >= payload["latency_ms"]["p50"],
            ),
            # a clean run needed no recovery; any means a degraded measurement
            _zero("resilience.worker_restarts"),
            _zero("resilience.task_retries"),
            _zero("resilience.timeouts"),
            _zero("resilience.sheds"),
        ),
    ),
    Scenario(
        "demand_queries",
        capture_demand_queries,
        dict(suite_size=2, max_axioms=24, fact_count=300, query_count=3, repeats=1),
        # no speedup floor: at smoke scale fixed costs dominate
        (
            _truthy("rows"),
            _is_true("agreement"),
            _above("magic.magic_facts"),
            _above("magic.adorned_rules"),
            Check(
                "0 < magic.predicates_touched <= magic.predicates_total",
                lambda payload: 0
                < payload["magic"]["predicates_touched"]
                <= payload["magic"]["predicates_total"],
            ),
        )
        + _FACT_STORE_CHECKS
        + (
            _above("kb_segments.file_bytes"),
            # the lazy repro-kb/v2 tier decodes a strict subset of segments
            Check(
                "0 < kb_segments.predicates_loaded < kb_segments.total_predicates",
                lambda payload: 0
                < payload["kb_segments"]["predicates_loaded"]
                < payload["kb_segments"]["total_predicates"],
            ),
        ),
    ),
    Scenario(
        "paper_figures",
        capture_paper_figures,
        dict(
            suite_size=4,
            max_axioms=30,
            timeout_seconds=2.0,
            blowup_inputs=2,
            ablation_inputs=2,
            structural_inputs=1,
        ),
        sum((_figure4_row_checks(algorithm) for algorithm in PAPER_ALGORITHMS), ())
        + (
            Check(
                "figure5 algorithms == exbdr, skdr, hypdr",
                lambda payload: set(payload["figure5"]) == set(PAPER_ALGORITHMS),
            ),
            Check(
                "figure5: some processed_inputs > 0",
                lambda payload: any(
                    row["processed_inputs"] > 0 for row in payload["figure5"].values()
                ),
            ),
            _is_true("figure5_all_guarded"),
            Check(
                "table1.full.max >= table1.full.min",
                lambda payload: payload["table1"]["full"]["max"]
                >= payload["table1"]["full"]["min"],
            ),
            _at_least("table1.non_full.max", 1),
            # disabling redundancy elimination never reduces the derivations
            # (on the counts: blowup_factor is rounded)
            Check(
                "ablation_subsumption: every blowup_factor >= 1",
                lambda payload: all(
                    row["derived_without"] >= max(row["derived_with"], 1)
                    for row in payload["ablation_subsumption"].values()
                ),
            ),
            _truthy("ablation_structural"),
        ),
    ),
)

#: gates on the whole capture; they only hold for an unfiltered one
CAPTURE_CHECKS: Tuple[Check, ...] = (
    Check("schema == bench-rewriting/v1", lambda payload: payload["schema"] == SCHEMA),
    _above("interning.overall.hit_rate", 0.5),
)

_WALL_CHECK = _above("wall_seconds")


def select_scenarios(names: Optional[Sequence[str]] = None) -> Tuple[Scenario, ...]:
    """The declared scenarios named (all of them for ``None``), in capture order.

    Raises :class:`ValueError` on a name no scenario declares.
    """
    if names is None:
        return SCENARIOS
    known = [scenario.name for scenario in SCENARIOS]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(
            f"unknown perf scenario(s) {unknown}; expected a subset of {known}"
        )
    return tuple(scenario for scenario in SCENARIOS if scenario.name in names)


def failed_checks(payload: Mapping[str, Any]) -> List[Tuple[str, str]]:
    """``(scenario, check name)`` for every declared check the capture fails.

    A filtered capture (one recording ``scenario_filter``) is checked only
    on the scenarios it captured; an unfiltered one must contain every
    declared scenario and also meets :data:`CAPTURE_CHECKS`, reported under
    the scenario name ``capture``.
    """
    scenarios = payload.get("scenarios")
    scenarios = scenarios if isinstance(scenarios, Mapping) else {}
    captured = payload.get("scenario_filter")
    failures: List[Tuple[str, str]] = []
    for scenario in select_scenarios(captured):
        result = scenarios.get(scenario.name)
        result = result if isinstance(result, Mapping) else {}
        for check in (_WALL_CHECK,) + scenario.checks:
            if not check.holds(result):
                failures.append((scenario.name, check.name))
    if captured is None:
        failures.extend(
            ("capture", check.name)
            for check in CAPTURE_CHECKS
            if not check.holds(payload)
        )
    return failures


def capture_perf(
    smoke: bool = False, scenarios: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Run the recorded scenarios and return the BENCH_rewriting payload.

    ``smoke=True`` runs every scenario at its declared smoke size, so the
    capture finishes in a few seconds; CI uses it to keep the pipeline
    exercised without paying for a full measurement run.  ``scenarios``
    restricts the capture to a subset of :data:`SCENARIOS` (``perf
    --scenario NAME``) so a single scenario can be iterated on without
    rerunning the whole capture; the filter is recorded in the payload as
    ``scenario_filter``.
    """
    selected = select_scenarios(scenarios)
    # start from empty intern tables so repeated in-process captures measure
    # the same (cold) workload and report comparable hit rates
    clear_intern_caches()
    wall_start = time.perf_counter()
    captured = {scenario.name: scenario.run(smoke) for scenario in selected}
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "created_unix": round(time.time(), 1),
        "scale": "smoke" if smoke else "default",
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "scenarios": captured,
        "interning": intern_stats(),
    }
    if scenarios is not None:
        payload["scenario_filter"] = sorted(captured)
    return payload


def default_bench_path(smoke: bool) -> str:
    """Where a capture of this scale goes unless told otherwise.

    A smoke capture never lands on the committed full-scale trajectory.
    """
    return "BENCH_smoke.json" if smoke else "BENCH_rewriting.json"


def write_bench_json(
    payload: Mapping[str, object], path: "str | Path | None" = None
) -> Path:
    """Persist a capture payload (by default to its scale's file); returns the path."""
    if path is None:
        path = default_bench_path(payload.get("scale") == "smoke")
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target


def compare_captures(
    current: Mapping[str, object], previous: Mapping[str, object]
) -> Dict[str, object]:
    """Wall-time ratios (previous / current, >1 means the current run is faster).

    Captures taken at different scales (``smoke`` versus ``default``) measure
    different workloads, so comparing their wall times would be meaningless;
    the mismatch is reported instead of ratios.
    """
    current_scale = current.get("scale")
    previous_scale = previous.get("scale")
    if current_scale != previous_scale:
        return {
            "error": (
                f"scale mismatch: current capture is {current_scale!r}, "
                f"baseline is {previous_scale!r}; wall times are not comparable"
            )
        }
    # a scenario that newly completes (or newly times out) measures different
    # work; its wall times are not comparable — compare_scenario_statuses
    # reports the change instead
    changed = compare_scenario_statuses(current, previous)
    ratios: Dict[str, object] = {}
    previous_scenarios = previous.get("scenarios", {})
    for name, scenario in current.get("scenarios", {}).items():
        old = previous_scenarios.get(name)
        if name in changed or not isinstance(old, Mapping):
            continue
        new_wall = scenario.get("wall_seconds")
        old_wall = old.get("wall_seconds")
        if new_wall and old_wall:
            ratios[name] = round(old_wall / new_wall, 2)
    return ratios


def compare_scenario_statuses(
    current: Mapping[str, object], previous: Mapping[str, object]
) -> Dict[str, Dict[str, object]]:
    """Per-scenario status transitions between two captures.

    Returns ``{name: {"baseline": ..., "current": ...}}`` for every scenario
    whose ``status`` flag differs between the captures — e.g. a FullDR
    comparison that used to time out on example E.3 and now completes.  Such
    scenarios are excluded from the wall-time ratios of
    :func:`compare_captures`, so without this block the change would be
    invisible (or worse, read as a regression).
    """
    changes: Dict[str, Dict[str, object]] = {}
    current_scenarios = current.get("scenarios", {})
    previous_scenarios = previous.get("scenarios", {})
    if not isinstance(current_scenarios, Mapping) or not isinstance(
        previous_scenarios, Mapping
    ):
        return changes
    for name, scenario in current_scenarios.items():
        old = previous_scenarios.get(name)
        if not isinstance(old, Mapping) or not isinstance(scenario, Mapping):
            continue
        old_status, new_status = old.get("status"), scenario.get("status")
        if isinstance(old_status, str) and isinstance(new_status, str):
            if old_status != new_status:
                changes[name] = {"baseline": old_status, "current": new_status}
    return changes
