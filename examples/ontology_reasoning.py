"""Ontology-based query answering: DL axioms -> GTGDs -> Datalog rewriting.

The paper derives its benchmark GTGDs from OWL ontologies using the standard
translation (classes = unary relations, properties = binary relations).  This
example follows the same pipeline on a small hand-written university ontology:

1. write DL axioms (including a nested existential that exercises the
   structural transformation),
2. translate them into GTGDs,
3. rewrite with our algorithms and with the KAON2-style baseline, and
4. answer queries over an ABox (base instance).

Run with::

    python examples/ontology_reasoning.py
"""

from __future__ import annotations

from repro import ConjunctiveQuery, KnowledgeBase, Variable, parse_facts
from repro.dl import (
    Conjunction,
    Existential,
    Kaon2Baseline,
    NamedClass,
    Ontology,
    PropertyDomain,
    PropertyRange,
    SubClassOf,
    SubPropertyOf,
    structural_transformation,
    translate_ontology,
)
from repro.logic.atoms import Predicate


def build_ontology() -> Ontology:
    """A small university ontology in the GTGD-translatable DL fragment."""
    professor = NamedClass("Professor")
    lecturer = NamedClass("Lecturer")
    staff = NamedClass("AcademicStaff")
    course = NamedClass("Course")
    graduate_course = NamedClass("GraduateCourse")
    student = NamedClass("Student")
    person = NamedClass("Person")
    department = NamedClass("Department")

    axioms = (
        # taxonomy
        SubClassOf(professor, staff),
        SubClassOf(lecturer, staff),
        SubClassOf(staff, person),
        SubClassOf(student, person),
        SubClassOf(graduate_course, course),
        # every professor teaches some course
        SubClassOf(professor, Existential("teaches", course)),
        # everyone who teaches something is academic staff
        SubClassOf(Existential("teaches", course), staff),
        # every graduate course is taught by a professor of some department
        # (nested existential: exercised by the structural transformation)
        SubClassOf(
            graduate_course,
            Existential("taughtBy", Conjunction((professor,
                        Existential("memberOf", department)))),
        ),
        # property semantics
        PropertyDomain("teaches", staff),
        PropertyRange("teaches", course),
        PropertyDomain("enrolledIn", student),
        PropertyRange("enrolledIn", course),
        SubPropertyOf("lectures", "teaches"),
    )
    return Ontology(axioms, name="university")


ABOX = """
Professor(turing).
Lecturer(hopper).
lectures(hopper, logic101).
GraduateCourse(complexity401).
enrolledIn(ada, complexity401).
"""


def main() -> None:
    ontology = build_ontology()
    print(f"Ontology '{ontology.name}' with {len(ontology)} axioms, "
          f"{len(ontology.class_names())} classes, "
          f"{len(ontology.property_names())} properties.")

    transformed = structural_transformation(ontology)
    print(f"Structural transformation: {len(ontology)} -> {len(transformed)} axioms.")

    tgds = translate_ontology(transformed)
    print(f"Translation produced {len(tgds)} guarded TGDs.\n")

    instance = parse_facts(ABOX)

    results = {}
    for algorithm in ("exbdr", "skdr", "hypdr"):
        kb = KnowledgeBase.compile(tgds, algorithm=algorithm)
        results[algorithm] = kb
        print(
            f"[{algorithm:6s}] {kb.rewriting.output_size:3d} Datalog rules, "
            f"{kb.rewriting.statistics.derived:4d} derived clauses, "
            f"{kb.rewriting.statistics.elapsed_seconds:.3f}s"
        )

    baseline = Kaon2Baseline()
    baseline_result = baseline.rewrite_ontology(ontology)
    print(
        f"[kaon2 ] {baseline_result.output_size:3d} Datalog rules "
        f"(structural transformation + resolution baseline)\n"
    )

    kb = results["hypdr"]
    x = Variable("x")
    queries = {
        "all persons": ConjunctiveQuery((x,), (Predicate("Person", 1)(x),)),
        "all academic staff": ConjunctiveQuery((x,), (Predicate("AcademicStaff", 1)(x),)),
        "all courses": ConjunctiveQuery((x,), (Predicate("Course", 1)(x),)),
        "all students": ConjunctiveQuery((x,), (Predicate("Student", 1)(x),)),
    }
    session = kb.session(instance)
    for label, query in queries.items():
        answers = session.answer(query)
        rendered = ", ".join(sorted(str(term) for (term,) in answers)) or "(none)"
        print(f"{label:22s}: {rendered}")

    # cross-check: every algorithm returns the same certain answers
    reference = session.certain_base_facts()
    for knowledge_base in results.values():
        assert knowledge_base.session(instance).certain_base_facts() == reference
    print("\nAll algorithms agree on the certain answers.")


if __name__ == "__main__":
    main()
