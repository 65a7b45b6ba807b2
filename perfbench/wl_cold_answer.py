"""The ``cold_answer`` workload: load a saved KB and answer one query, cold.

Set-up compiles the knowledge base (``data/kb_sigma.gtgd``, ExbDR), draws
a seeded base instance and saves both as a ``repro-kb/v2`` file with fact
segments.  Each op then does what a one-shot caller does:
``KnowledgeBase.load`` of that file, ``session(defer_materialization=True)``
over its lazy segments, and ``answer_many`` of one query with the default
``auto`` strategy, with the process-wide engine and magic-transform caches
emptied first.  Ops come in blocks of four: three bound point queries
(answered on demand through magic sets) and one all-free query (which
forces full materialization).

Every answer is checked against ``naive_reference_fixpoint`` of the base
instance, and every distinct query is also answered with the materialized
strategy on a warm session, which must agree.  ``update_ms`` is the load
step, ``query_ms`` the session + answer step.
"""

from __future__ import annotations

import gc
import os
import random
import time

from common import (
    OUT,
    SETUPS,
    Drift,
    Result,
    SetupTimer,
    Timings,
    Tracer,
    account,
    answers_key,
    end_to_end,
    index_facts,
    knowledge_base_sigma,
    peak_rss_mb,
    random_facts,
    reference_answers,
    trace_overhead,
)

FACTS = 6000
CONSTANTS = 600
#: ops per block: BOUND_PER_BLOCK bound queries, then one all-free query
BLOCK = 4
BOUND_PER_BLOCK = 3
#: the fixed leading ops every run completes; counts are reported over them
PANEL_OPS = 48
#: a run has about 200 ops (see common.tail)
TAIL_PERCENTILE = 90.0


class Setup:
    def __init__(self, seed: int) -> None:
        from repro import KnowledgeBase

        rng = random.Random(seed)
        self.kb = KnowledgeBase.compile(knowledge_base_sigma(), "exbdr", use_cache=False)
        constants = [f"d{index}" for index in range(CONSTANTS)]
        self.facts = random_facts(self.kb.tgds, FACTS, constants, rng, skew=0.0)
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = OUT / f"cold-{os.getpid()}.kb.json"
        self.kb.save(self.path, facts=self.facts)
        idb = sorted(self.kb.program.idb_predicates(), key=lambda p: (p.name, p.arity))
        self.bound_cycle = list(idb)
        self.free_cycle = list(idb)
        rng.shuffle(self.bound_cycle)
        rng.shuffle(self.free_cycle)
        self.constants = constants
        self.rng = rng

    def query(self, number: int) -> str:
        block, position = divmod(number, BLOCK)
        if position < BOUND_PER_BLOCK:
            predicate = self.bound_cycle[
                (block * BOUND_PER_BLOCK + position) % len(self.bound_cycle)
            ]
            first = self.rng.choice(self.constants)
            rest = [f"?y{index}" for index in range(1, predicate.arity)]
            return f"{predicate.name}({', '.join([first] + rest)})"
        predicate = self.free_cycle[block % len(self.free_cycle)]
        variables = [f"?x{index}" for index in range(predicate.arity)]
        return f"{predicate.name}({', '.join(variables)})"


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro import KnowledgeBase, QueryOptions, parse_query
    from repro.datalog import naive_reference_fixpoint
    from repro.datalog.engine import clear_engine_cache
    from repro.datalog.magic import clear_transform_cache

    result = Result()
    timer = SetupTimer()
    for _ in range(SETUPS):
        with timer.measure():
            setup = Setup(seed)
    tracer = Tracer()

    def execute(text, kind, number):
        """One op: load, open a deferred session, answer; returns the
        observation and the load and answer times.  The process-wide
        compiled-engine and magic-transform caches are emptied first, so
        every op builds its join plans and magic program as a one-shot
        caller's fresh process does."""
        clear_engine_cache()
        clear_transform_cache()
        start = time.perf_counter()
        with tracer.span("op", request=number):
            with tracer.span("kb.load"):
                kb = KnowledgeBase.load(setup.path)
            loaded = time.perf_counter()
            query = parse_query(text)
            with tracer.span("datalog.session.open"):
                session = kb.session(kb.fact_segments, defer_materialization=True)
            layer = "datalog.demand" if kind == "bound" else "datalog.materialize"
            with tracer.span(layer):
                (answers,) = session.answer_many([query])
        end = time.perf_counter()
        segments = kb.fact_segments.stats()
        demand = session.demand_stats
        observation = {
            "text": text,
            "kind": kind,
            "answers": answers_key(answers),
            "strategy": session.resolve_strategy(query),
            "magic_facts": demand["magic_facts"],
            "touched": demand["predicates_touched"] / max(1, demand["predicates_total"]),
            "decoded": segments["predicates_loaded"] / max(1, segments["total_predicates"]),
        }
        return observation, loaded - start, end - loaded

    drift = Drift()
    timings, load_times, answer_times = Timings(drift), Timings(drift), Timings(drift)
    overheads = []
    observed = []
    panel = []
    busy = 0.0
    number = 0
    gc.collect()
    before = drift.sample()
    while busy < seconds or number < PANEL_OPS:
        text = setup.query(number)
        kind = "bound" if number % BLOCK < BOUND_PER_BLOCK else "free"
        # the traced run repeats each op untraced, alternating which goes
        # first, and the paired difference is the tracing overhead
        modes = ((True, False) if number % 2 == 0 else (False, True)) if trace else (False,)
        result.attempted += len(modes)
        walls = {}
        try:
            for traced in modes:
                tracer.enabled = traced
                observation, load_seconds, answer_seconds = execute(text, kind, number)
                walls[traced] = load_seconds + answer_seconds
                observed.append(observation)
                if traced or not trace:
                    kept = (observation, load_seconds, answer_seconds)
            tracer.enabled = False
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            tracer.enabled = False
            result.fail(f"{text}: {type(exc).__name__}: {exc}")
            number += 1
            continue
        observation, load_seconds, answer_seconds = kept
        if number < PANEL_OPS:
            panel.append(observation)
        after = drift.sample()
        timings.add(kind, load_seconds + answer_seconds, before, after)
        load_times.add("load", load_seconds, before, after)
        answer_times.add("answer", answer_seconds, before, after)
        if trace:
            overheads.append((walls[True] - walls[False], before, after))
        before = after
        busy += sum(walls.values())
        number += 1
    tracer.enabled = False

    # correctness: the naive executable spec, and the materialized strategy
    reference = index_facts(naive_reference_fixpoint(setup.kb.program, setup.facts))
    warm = setup.kb.session(setup.facts)
    materialized = {}
    for op in observed:
        text = op["text"]
        if text not in materialized:
            materialized[text] = answers_key(
                warm.answer(parse_query(text), options=QueryOptions("materialized"))
            )
        expected = answers_key(reference_answers(reference, text))
        if op["answers"] != expected:
            result.fail(f"{text}: answers differ from the reference's")
        elif materialized[text] != expected:
            result.fail(f"{text}: materialized strategy disagrees with the reference")
        expected_strategy = "demand" if op["kind"] == "bound" else "materialized"
        if op["strategy"] != expected_strategy:
            result.fail(f"{text}: resolved to {op['strategy']}, not {expected_strategy}")
    setup.path.unlink()

    bound = [op for op in panel if op["kind"] == "bound"]
    broad = [op for op in bound if op["touched"] > 0.5]
    result.report.update(
        workload="cold_answer",
        seed=seed,
        ops=number,
        host_factor=drift.summary(),
        mix={
            "bound": len(timings.raw.get("bound", ())),
            "free": len(timings.raw.get("free", ())),
            "panel_bound_broad": len(broad),
            "panel_bound": len(bound),
        },
    )
    result.metric("host.factor", drift.summary()["median"], "ratio")
    if not trace:
        end_to_end(result, "cold_answer", timings, answer_times, load_times, timer, TAIL_PERCENTILE)
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        result.metric("rules_out", len(setup.kb.program), "count")
        return result

    layers = tracer.layers()
    tracer.dump(OUT / f"trace-cold_answer-{seed}.json")
    full = setup.kb.materialize(setup.facts)
    result.metric("kb.load.ms", tracer.mean_ms("kb.load"), "ms")
    result.metric(
        "kb.segments_decoded_share", sum(op["decoded"] for op in panel) / len(panel), "ratio"
    )
    result.metric("datalog.demand.ms", tracer.mean_ms("datalog.demand"), "ms")
    result.metric("datalog.magic_facts", sum(op["magic_facts"] for op in bound), "count")
    result.metric(
        "datalog.demand_predicates_share",
        sum(op["touched"] for op in bound) / max(1, len(bound)),
        "ratio",
    )
    result.metric("datalog.demand.broad_share", len(broad) / max(1, len(bound)), "ratio")
    result.metric("datalog.materialize.ms", tracer.mean_ms("datalog.materialize"), "ms")
    result.metric("datalog.rounds", full.rounds, "count")
    result.metric("datalog.derived_facts", full.derived_count, "count")
    account(result, layers, ("op",))
    trace_overhead(result, drift, overheads, timings.values(normalized=True))
    return result
