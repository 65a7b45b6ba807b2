"""Derive the compile workload's input pool and its oracle digests.

Writes ``perfbench/data/compile_pool.json``: a fixed pool of seeded
ontology-suite GTGD sets (Σ), each stored as text together with a small
check instance and the digest of the certain base facts the guarded-chase
oracle (:class:`repro.chase.guarded_engine.GuardedChaseReasoner`) derives
from it.  The compile workload checks every rewriting it produces against
these digests, so its reference is the chase, not the code under test.

The pool is sorted by ExbDR cost (the clauses its saturation ``derived``),
so the compile workload can cut it into cost strata and draw one Σ per
stratum per round: every round has the same cost profile whatever the
seed.

Run from the repository root (takes several minutes; the oracle dominates)::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import RewritingSettings, rewrite  # noqa: E402
from repro.chase.guarded_engine import GuardedChaseReasoner  # noqa: E402
from repro.logic.printer import format_fact, format_tgd  # noqa: E402
from repro.workloads.ontology_suite import OntologyProfile, generate_input  # noqa: E402

from common import check_instance, facts_digest  # noqa: E402

POOL_PATH = HERE / "data" / "compile_pool.json"
POOL_SIZE = 128
MIN_AXIOMS, MAX_AXIOMS = 12, 60
#: ExbDR must finish far inside the workload's per-op budget
EXBDR_LIMIT_SECONDS = 3.0


def candidate(rng: random.Random):
    axioms = rng.randint(MIN_AXIOMS, MAX_AXIOMS)
    profile = OntologyProfile(
        class_count=max(6, axioms // 2),
        property_count=max(3, axioms // 8),
        axiom_count=axioms,
        existential_fraction=rng.uniform(0.2, 0.45),
        conjunction_fraction=rng.uniform(0.1, 0.25),
        role_axiom_fraction=rng.uniform(0.1, 0.3),
        nested_existential_fraction=rng.uniform(0.0, 0.1),
        seed=rng.randrange(10**9),
    )
    return generate_input(profile)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--out", type=Path, default=POOL_PATH)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    entries = []
    seen = set()
    started = time.perf_counter()
    while len(entries) < POOL_SIZE:
        item = candidate(rng)
        text = "\n".join(format_tgd(tgd) for tgd in item.tgds)
        if text in seen:
            continue
        seen.add(text)
        t0 = time.perf_counter()
        exbdr = rewrite(
            item.tgds,
            algorithm="exbdr",
            settings=RewritingSettings(timeout_seconds=EXBDR_LIMIT_SECONDS),
        )
        if not exbdr.completed:
            print(f"skip: {len(item.tgds)} TGDs, ExbDR over {EXBDR_LIMIT_SECONDS}s",
                  file=sys.stderr)
            continue
        exbdr_seconds = time.perf_counter() - t0
        facts = check_instance(item.tgds, random.Random(rng.randrange(10**9)))
        t0 = time.perf_counter()
        certain = GuardedChaseReasoner(item.tgds).entailed_base_facts(facts)
        oracle_seconds = time.perf_counter() - t0
        entries.append(
            {
                "tgds": text,
                "facts": "\n".join(sorted(format_fact(fact) for fact in facts)),
                "axioms": item.profile.axiom_count,
                "exbdr_derived": exbdr.statistics.derived,
                "expected": {"count": len(certain), "sha256": facts_digest(certain)},
            }
        )
        print(
            f"{len(entries):3d} axioms={item.profile.axiom_count:2d} "
            f"exbdr={exbdr_seconds:.2f}s oracle={oracle_seconds:.2f}s "
            f"certain={len(certain)} elapsed={time.perf_counter() - started:.0f}s",
            file=sys.stderr,
            flush=True,
        )
    entries.sort(key=lambda entry: (entry["exbdr_derived"], entry["tgds"]))
    for index, entry in enumerate(entries):
        entry["id"] = f"sigma-{index:03d}"
    payload = {
        "about": "compile workload pool; regenerate with perfbench/make_oracle.py",
        "seed": args.seed,
        "oracle": "repro.chase.guarded_engine.GuardedChaseReasoner",
        "digest": "sha256 of the sorted fact lines (common.facts_digest)",
        "entries": entries,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
