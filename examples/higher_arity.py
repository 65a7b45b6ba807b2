"""Higher-arity GTGDs: the arity blow-up of Section 7.4.

KAON2-style DL reasoners only handle relations of arity at most two; the
GTGD algorithms of the paper have no such restriction.  This example takes
the CIM GTGDs, blows their relation arity up by a configurable factor (the
paper uses 5, producing arity-10 relations), and shows that ExbDR/SkDR/HypDR
still compute correct rewritings while the KAON2 baseline has to give up.

Run with::

    python examples/higher_arity.py [factor]
"""

from __future__ import annotations

import sys
import time

from repro import KnowledgeBase
from repro.dl import Kaon2Baseline, UnsupportedArityError
from repro.logic.tgd import bwidth, head_normalize, hwidth
from repro.workloads.blowup import blow_up_arity
from repro.workloads.families import cim_example
from repro.workloads.instances import generate_instance


def main(factor: int = 3) -> None:
    tgds, _ = cim_example()
    blown_up = blow_up_arity(tgds, factor=factor, extra_atom_probability=0.4, seed=3)

    arities = sorted(
        {atom.predicate.arity for tgd in blown_up for atom in tgd.body + tgd.head}
    )
    print(
        f"Blew up {len(tgds)} CIM GTGDs by a factor of {factor}: "
        f"relation arities are now {arities}, "
        f"body width {bwidth(head_normalize(blown_up))}, "
        f"head width {hwidth(head_normalize(blown_up))}.\n"
    )

    instance = generate_instance(blown_up, fact_count=60, constant_count=25, seed=1)

    answers = {}
    for algorithm in ("exbdr", "skdr", "hypdr"):
        start = time.perf_counter()
        kb = KnowledgeBase.compile(blown_up, algorithm=algorithm)
        elapsed = time.perf_counter() - start
        answers[algorithm] = kb.session(instance).certain_base_facts()
        print(
            f"[{algorithm:6s}] {kb.rewriting.output_size:3d} Datalog rules in "
            f"{elapsed:.3f}s; {len(answers[algorithm])} certain base facts"
        )

    try:
        Kaon2Baseline().rewrite_tgds(blown_up)
        print("[kaon2 ] unexpectedly accepted a higher-arity input")
    except UnsupportedArityError as error:
        print(f"[kaon2 ] refused the input: {error}")

    assert answers["exbdr"] == answers["skdr"] == answers["hypdr"]
    print("\nAll three GTGD algorithms agree on the certain answers.")


if __name__ == "__main__":
    blow_up_factor = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    main(blow_up_factor)
