"""Determinism self-test: the same seed must repeat the same work.

Runs every workload's traced variant twice with one seed, and the compile
workload's untraced variant twice, then checks that the counts which
describe the work done — ``rules_out``, the ``rewriting.*`` counts,
``datalog.magic_facts`` and the other demand counts, and the DRed counts —
are identical.  Cache and batch counts depend on timing and are left out,
as are all times and ``kb.file_bytes`` (a saved KB records its compile
time).

First it checks that the answer checks can fail: a yes/no answer and its
negation must have different keys, and a ``cold_answer`` run whose session
flips every yes/no answer must count each of those ops as failed.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selftest.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: (workload, trace) -> the counts that must repeat exactly
REPEATED = {
    ("compile", "0"): ("rules_out",),
    ("compile", "1"): (
        "rewriting.inferences",
        "rewriting.derived",
        "rewriting.retained",
        "rewriting.retained_share",
    ),
    ("cold_answer", "1"): (
        "datalog.magic_facts",
        "datalog.demand_predicates_share",
        "datalog.demand.broad_share",
        "kb.segments_decoded_share",
        "datalog.rounds",
        "datalog.derived_facts",
    ),
    ("serve", "1"): (
        "datalog.dred.overdeleted",
        "datalog.dred.rederived",
        "datalog.dred.rederived_share",
        "datalog.rounds",
        "datalog.derived_facts",
    ),
}


def run(workload: str, trace: str, seed: int, seconds: str) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", seconds, "--trace", trace,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} trace={trace}: incorrect result {result}")
    return result["metrics"]


def check_flipped_answers(seed: int) -> int:
    """Run ``cold_answer`` in this process with every yes/no answer of the
    timed ops negated; returns how many such ops the checks missed."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from common import answers_key
    from repro.datalog.session import ReasoningSession

    import wl_cold_answer

    for true, false in (([()], []), ([[]], [])):
        if answers_key(true) == answers_key(false):
            print(f"DIFF answers_key({true!r}) == answers_key({false!r})")
            return 1
    original = ReasoningSession.answer_many
    flipped = []

    def answer_many(self, queries, **kwargs):
        answers = original(self, queries, **kwargs)
        for query in queries:
            if query.arity == 0:
                flipped.append(str(query))
        return tuple(
            (frozenset() if rows else frozenset({()})) if query.arity == 0 else rows
            for query, rows in zip(queries, answers)
        )

    ReasoningSession.answer_many = answer_many
    try:
        result = wl_cold_answer.run(seed, 1.0, False)
    finally:
        ReasoningSession.answer_many = original
    missed = len(flipped) - result.failed
    print(f"{'ok  ' if flipped and not missed else 'MISS'} cold_answer flipped yes/no answers: "
          f"{len(flipped)} flipped, {result.failed} failed ops")
    return 1 if missed or not flipped else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", default="3")
    args = parser.parse_args()
    mismatches = check_flipped_answers(args.seed)
    for (workload, trace), names in REPEATED.items():
        first = run(workload, trace, args.seed, args.seconds)
        second = run(workload, trace, args.seed, args.seconds)
        for name in names:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            mismatches += not same
            print(f"{'ok  ' if same else 'DIFF'} {workload:12s} {name:34s} {a!r} {b!r}")
    print("all checks passed" if not mismatches else f"{mismatches} checks failed")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
