"""Quickstart: rewriting the CIM example from the paper's introduction.

The script

1. parses the GTGDs (1)-(4) and the facts (5)-(6) of Example 1.1,
2. computes a Datalog rewriting with each algorithm,
3. materializes the rewriting on the base instance, and
4. answers the user's question from the introduction: "list all pieces of
   equipment known to the system" — which must return both sw1 and sw2 even
   though neither is explicitly classified as equipment.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ConjunctiveQuery, KnowledgeBase, Variable, parse_program
from repro.logic import format_datalog_program, format_fact
from repro.logic.atoms import Predicate

CIM_PROGRAM = """
% GTGDs (1)-(4): a fragment of the IEC Common Information Model
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
ACTerminal(?x) -> exists ?y. partOf(?x, ?y), ACEquipment(?y).

% facts (5)-(6): one source knows both switches, the other only sw1's terminal
ACEquipment(sw1).
ACEquipment(sw2).
hasTerminal(sw1, trm1).
ACTerminal(trm1).
"""


def main() -> None:
    program = parse_program(CIM_PROGRAM)
    print(f"Parsed {len(program.tgds)} GTGDs and {len(program.instance)} base facts.\n")

    for algorithm in ("exbdr", "skdr", "hypdr"):
        kb = KnowledgeBase.compile(program.tgds, algorithm=algorithm)
        stats = kb.rewriting.statistics
        print(
            f"[{algorithm:6s}] rewriting has {kb.rewriting.output_size} Datalog rules "
            f"(derived {stats.derived} clauses in {stats.elapsed_seconds:.3f}s)"
        )

    # use the default algorithm (HypDR) for query answering
    kb = KnowledgeBase.compile(program.tgds)
    print("\nDatalog rewriting produced by HypDR:")
    print(format_datalog_program(kb.rewriting.datalog_rules))

    x = Variable("x")
    equipment_query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
    session = kb.session(program.instance)
    answers = session.answer(equipment_query)
    print("\nAll pieces of equipment known to the system:")
    for (term,) in sorted(answers, key=str):
        print(f"  {term}")

    print("\nAll entailed base facts:")
    for fact in sorted(session.certain_base_facts(), key=str):
        print(f"  {format_fact(fact)}")


if __name__ == "__main__":
    main()
