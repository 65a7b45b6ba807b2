"""Integration tests for the high-level KnowledgeBase API."""

import pytest

from repro import (
    ConjunctiveQuery,
    KnowledgeBase,
    Variable,
    parse_program,
)
from repro.logic.atoms import Predicate
from repro.logic.terms import Constant, Null


class TestKnowledgeBase:
    def test_compile_once_query_many_instances(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        equipment = Predicate("Equipment", 1)
        first = kb.session(instance).certain_base_facts()
        assert equipment(Constant("sw1")) in first
        other_instance = parse_program("ACEquipment(sw42).").instance
        second = kb.session(other_instance).certain_base_facts()
        assert equipment(Constant("sw42")) in second

    def test_entails(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        equipment = Predicate("Equipment", 1)
        assert kb.entails(instance, equipment(Constant("sw2")))
        assert not kb.entails(instance, equipment(Constant("trm1")))

    def test_entails_rejects_non_base_facts(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        with pytest.raises(ValueError):
            kb.entails(instance, Predicate("Equipment", 1)(Null(0)))

    def test_query_answering(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        x = Variable("x")
        query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
        (answers,) = kb.answer_many([query], instance)
        assert (Constant("sw1"),) in answers
        assert (Constant("sw2"),) in answers

    def test_materialize_exposes_statistics(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        result = kb.materialize(instance)
        assert len(result) >= len(instance)
        assert result.rounds >= 1

    def test_program_property(self, cim):
        tgds, _ = cim
        kb = KnowledgeBase.compile(tgds)
        assert len(kb.program) == kb.rewriting.output_size

    def test_compile_with_explicit_algorithm_and_settings(self, cim):
        from repro import RewritingSettings

        tgds, instance = cim
        kb = KnowledgeBase.compile(
            tgds, algorithm="exbdr", settings=RewritingSettings(use_lookahead=False)
        )
        assert kb.rewriting.algorithm == "ExbDR"
        assert kb.session(instance).certain_base_facts()


class TestOneShotHelpers:
    """One-shot use: compile, then answer or close a single instance."""

    def test_answer_query(self, cim):
        tgds, instance = cim
        x = Variable("x")
        query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
        (answers,) = KnowledgeBase.compile(tgds).answer_many([query], instance)
        assert len(answers) == 2

    def test_entailed_base_facts(self, running):
        tgds, instance = running
        kb = KnowledgeBase.compile(tgds, algorithm="skdr")
        facts = kb.session(instance).certain_base_facts()
        assert Predicate("H", 1)(Constant("a")) in facts

    def test_queries_with_joins_over_completed_data(self, cim):
        """Join a derived unary fact with an explicit binary fact."""
        tgds, instance = cim
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery(
            (x, y),
            (
                Predicate("Equipment", 1)(x),
                Predicate("hasTerminal", 2)(x, y),
            ),
        )
        (answers,) = KnowledgeBase.compile(tgds).answer_many([query], instance)
        assert answers == {(Constant("sw1"), Constant("trm1"))}


class TestQueryOptionsSurface:
    def test_blessed_names_are_reexported_from_repro(self):
        import repro

        for name in ("KnowledgeBase", "QueryOptions", "ConjunctiveQuery"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_answer_many_positional_calls_keep_working(self, cim):
        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        x = Variable("x")
        query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
        answers = kb.answer_many([query], instance)
        assert (Constant("sw1"),) in answers[0]

    def test_options_is_keyword_only(self, cim):
        from repro import QueryOptions

        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        x = Variable("x")
        query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
        with pytest.raises(TypeError):
            kb.answer_many([query], instance, QueryOptions())

    def test_every_strategy_returns_identical_answers(self, cim):
        from repro import QueryOptions

        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        query = ConjunctiveQuery(
            (Variable("y"),),
            (Predicate("hasTerminal", 2)(Constant("sw1"), Variable("y")),),
        )
        results = {
            strategy: kb.answer_many(
                [query], instance, options=QueryOptions(strategy=strategy)
            )[0]
            for strategy in ("auto", "materialized", "demand")
        }
        assert results["auto"] == results["materialized"] == results["demand"]
        assert results["auto"] == {(Constant("trm1"),)}

    def test_default_query_options_are_auto(self):
        from repro.datalog.query import DEFAULT_QUERY_OPTIONS, QUERY_STRATEGIES

        assert DEFAULT_QUERY_OPTIONS.strategy == "auto"
        assert QUERY_STRATEGIES == ("auto", "materialized", "demand")


class TestDeprecatedSurface:
    def test_blessed_paths_do_not_warn(self, cim):
        import warnings as warnings_module

        tgds, instance = cim
        kb = KnowledgeBase.compile(tgds)
        x = Variable("x")
        query = ConjunctiveQuery((x,), (Predicate("Equipment", 1)(x),))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", DeprecationWarning)
            kb.answer_many([query], instance)
            kb.session(instance).certain_base_facts()
            kb.entails(instance, Predicate("Equipment", 1)(Constant("sw1")))

    def test_removed_one_shot_shims_stay_removed(self):
        import repro
        import repro.api

        for name in ("answer_query", "entailed_base_facts"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.api, name)
        assert not hasattr(KnowledgeBase, "answer")
        assert not hasattr(KnowledgeBase, "certain_base_facts")
