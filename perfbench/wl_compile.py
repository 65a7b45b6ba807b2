"""The ``compile`` workload: closed-loop ``compile`` + ``save`` of distinct Σ.

One caller compiles seeded ontology-suite GTGD sets from the oracle pool
(``data/compile_pool.json``) with ExbDR, SkDR and HypDR, each op being
``KnowledgeBase.compile(Σ, algorithm, use_cache=False)`` followed by
``save`` to a file — what ``repro compile`` does.  Ops run in rounds; a
round compiles one Σ from each cost stratum of the pool under all three
algorithms, in seeded order, so every round has the same cost profile.
Round 0 is a fixed panel, the same for every seed; the run ends after the
first whole round that reaches the time budget.

Between ops (untimed) each rewriting is checked: it must be complete, and
its certain base facts on the Σ's check instance must match the
guarded-chase oracle's digest.  That check runs the generated Datalog, so
its time is the workload's ``query_ms``; ``update_ms`` is the ``save``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

from common import (
    DATA,
    OUT,
    SETUPS,
    Drift,
    Result,
    SetupTimer,
    Timings,
    Tracer,
    account,
    end_to_end,
    facts_digest,
    peak_rss_mb,
    trace_overhead,
)

ALGORITHMS = ("exbdr", "skdr", "hypdr")
#: per-op saturation budget; pool Σ finish ExbDR in under 3 s
BUDGET_SECONDS = 20.0
#: a run has about 170 ops (see common.tail)
TAIL_PERCENTILE = 90.0
#: cost strata of the pool; a round compiles one Σ of each
STRATA = 16


class Setup:
    def __init__(self, seed: int) -> None:
        from repro import RewritingSettings, parse_facts, parse_tgds

        pool = json.loads((DATA / "compile_pool.json").read_text(encoding="utf-8"))
        self.entries = [
            {
                "id": entry["id"],
                "tgds": parse_tgds(entry["tgds"]),
                "facts": list(parse_facts(entry["facts"])),
                "expected": entry["expected"],
            }
            for entry in pool["entries"]
        ]
        self.settings = RewritingSettings(timeout_seconds=BUDGET_SECONDS)
        # the pool is sorted by ExbDR cost; consecutive runs of it are the
        # strata.  Round 0 is the fixed panel (each stratum's first member),
        # so the counts reported over it compare across seeds; later rounds
        # draw the other members in seeded order
        size = len(self.entries) // STRATA
        self.strata = [self.entries[index : index + size] for index in range(0, size * STRATA, size)]
        rng = random.Random(seed)
        for members in self.strata:
            rest = members[1:]
            rng.shuffle(rest)
            members[1:] = rest
        self.rng = rng
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = OUT / f"compile-{os.getpid()}.kb.json"

    def round_ops(self, number: int):
        """Round 0: the fixed panel; round r: each stratum's r-th member
        (wrapping past the pool), every Σ under every algorithm, in seeded
        order."""
        ops = [
            (members[number % len(members)], algorithm)
            for members in self.strata
            for algorithm in ALGORITHMS
        ]
        self.rng.shuffle(ops)
        return ops


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro import KnowledgeBase

    result = Result()
    timer = SetupTimer()
    for _ in range(SETUPS):
        with timer.measure():
            setup = Setup(seed)
    tracer = Tracer()

    def execute(entry, algorithm, number):
        """One op, then its untimed check; returns the phase times."""
        start = time.perf_counter()
        with tracer.span("op", request=number):
            with tracer.span(f"rewriting.{algorithm}"):
                kb = KnowledgeBase.compile(
                    entry["tgds"], algorithm, settings=setup.settings, use_cache=False
                )
            saved = time.perf_counter()
            with tracer.span("kb.save"):
                kb.save(setup.path)
        end = time.perf_counter()
        with tracer.span("check", request=number):
            with tracer.span("rewriting.program"):
                program = kb.program  # built here; the session below reuses it
            with tracer.span("datalog.materialize"):
                certain = kb.session(entry["facts"]).certain_base_facts()
        checked = time.perf_counter()
        expected = entry["expected"]
        if not kb.rewriting.completed:
            result.fail(f"{entry['id']}/{algorithm}: incomplete rewriting")
        elif len(certain) != expected["count"] or facts_digest(certain) != expected["sha256"]:
            result.fail(
                f"{entry['id']}/{algorithm}: {len(certain)} certain base facts, "
                f"oracle has {expected['count']}"
            )
        return kb, end - start, end - saved, checked - end

    drift = Drift()
    timings, save_times, check_times = Timings(drift), Timings(drift), Timings(drift)
    overheads = []
    panel = {"rules_out": 0, "inferences": 0, "derived": 0, "retained": 0, "file_bytes": 0, "ops": 0}
    busy = 0.0
    op_number = 0
    round_number = 0
    gc.collect()
    before = drift.sample()
    while busy < seconds or round_number == 0:
        for entry, algorithm in setup.round_ops(round_number):
            # the traced run repeats each op untraced, alternating which
            # goes first, and the paired difference is the tracing overhead
            modes = ((True, False) if op_number % 2 == 0 else (False, True)) if trace else (False,)
            result.attempted += len(modes)
            walls = {}
            try:
                for traced in modes:
                    tracer.enabled = traced
                    kb, op_seconds, save_seconds, check_seconds = execute(entry, algorithm, op_number)
                    walls[traced] = op_seconds
                    if traced or not trace:
                        file_bytes = setup.path.stat().st_size
                        kept = (kb, op_seconds, save_seconds, check_seconds)
                tracer.enabled = False
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                tracer.enabled = False
                result.fail(f"{entry['id']}/{algorithm}: {type(exc).__name__}: {exc}")
                op_number += 1
                continue
            kb, op_seconds, save_seconds, check_seconds = kept
            after = drift.sample()
            timings.add(algorithm, op_seconds, before, after)
            save_times.add("save", save_seconds, before, after)
            check_times.add("check", check_seconds, before, after)
            if trace:
                overheads.append((walls[True] - walls[False], before, after))
            before = after
            busy += sum(walls.values())
            if round_number == 0:
                stats = kb.rewriting.statistics
                panel["ops"] += 1
                panel["rules_out"] += kb.rewriting.output_size
                panel["inferences"] += stats.inferences
                panel["derived"] += stats.derived
                panel["retained"] += stats.retained
                panel["file_bytes"] += file_bytes
            op_number += 1
        if round_number == 0:
            panel_rss = peak_rss_mb()
        round_number += 1
    tracer.enabled = False
    if setup.path.exists():
        setup.path.unlink()

    result.report.update(
        workload="compile",
        seed=seed,
        rounds=round_number,
        ops=op_number,
        host_factor=drift.summary(),
        panel=panel,
    )
    result.metric("host.factor", drift.summary()["median"], "ratio")
    if not trace:
        end_to_end(result, "compile", timings, check_times, save_times, timer, TAIL_PERCENTILE)
        # after the fixed panel: later rounds add cached compiled programs, so
        # the process peak grows with the number of ops a run gets through
        result.metric("peak_rss_mb", panel_rss, "MB")
        result.metric("rules_out", panel["rules_out"], "count")
        return result

    layers = tracer.layers()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-compile-{seed}.json")
    for algorithm in ALGORITHMS:
        result.metric(f"rewriting.{algorithm}.ms", tracer.mean_ms(f"rewriting.{algorithm}"), "ms")
    result.metric("rewriting.program.ms", tracer.mean_ms("rewriting.program"), "ms")
    result.metric("kb.save.ms", tracer.mean_ms("kb.save"), "ms")
    result.metric("datalog.materialize.ms", tracer.mean_ms("datalog.materialize"), "ms")
    result.metric("rewriting.inferences", panel["inferences"], "count")
    result.metric("rewriting.derived", panel["derived"], "count")
    result.metric("rewriting.retained", panel["retained"], "count")
    result.metric(
        "rewriting.retained_share",
        panel["retained"] / panel["derived"] if panel["derived"] else 0.0,
        "ratio",
    )
    result.metric("kb.file_bytes", panel["file_bytes"] / max(1, panel["ops"]), "bytes")
    account(result, layers, ("op", "check"))
    trace_overhead(result, drift, overheads, timings.values(normalized=True))
    return result
