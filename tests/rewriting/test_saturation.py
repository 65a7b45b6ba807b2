"""Tests for the saturation engine (Algorithm 1) and its settings."""

import pytest

from repro.rewriting import RewritingSettings, rewrite
from repro.rewriting.exbdr import ExbDR
from repro.rewriting.hypdr import HypDR
from repro.rewriting.saturation import Saturation, saturate
from repro.rewriting.skdr import SkDR
from repro.workloads.families import running_example
from repro.logic.parser import parse_tgds


class TestAlgorithmOne:
    def test_statistics_are_populated(self):
        tgds, _ = running_example()
        result = saturate(ExbDR(), tgds)
        stats = result.statistics
        assert stats.input_size == 6  # the 6 input GTGDs are already head-normal
        assert stats.processed > 0
        assert stats.derived > 0
        assert stats.elapsed_seconds >= 0.0
        assert not stats.timed_out

    def test_inferences_count_conclusions_before_head_normalization(self):
        tgds, _ = running_example()
        exbdr = saturate(ExbDR(), tgds).statistics
        assert exbdr.inferences > 0
        # head normalization splits a TGD conclusion into one or more clauses
        assert exbdr.derived >= exbdr.inferences
        # rule-based inferences are never split, so the counters coincide
        skdr = saturate(SkDR(), tgds).statistics
        assert skdr.inferences > 0
        assert skdr.derived == skdr.inferences

    def test_input_size_counts_skolemized_rules_for_rule_algorithms(self):
        tgds, _ = running_example()
        result = saturate(SkDR(), tgds)
        # Skolemizing the head-normalized input produces 8 rules
        assert result.statistics.input_size == 8

    def test_smaller_clauses_are_processed_first(self):
        tgds = parse_tgds(
            """
            A(?x), B(?x), C(?x), D(?x) -> E(?x).
            A(?x) -> B(?x).
            """
        )
        saturation = Saturation(ExbDR())
        saturation.run(tgds)
        assert saturation.statistics.processed == 2

    def test_tautologies_are_discarded(self):
        tgds = parse_tgds(
            """
            A(?x), B(?x) -> A(?x).
            A(?x) -> B(?x).
            """
        )
        result = saturate(ExbDR(), tgds)
        assert result.statistics.discarded_tautology >= 1
        assert result.output_size == 1

    def test_forward_subsumption_discards_weaker_clauses(self):
        tgds = parse_tgds(
            """
            A(?x1, ?x2) -> B(?x1).
            A(?x1, ?x2), C(?x1) -> B(?x1).
            """
        )
        result = saturate(ExbDR(), tgds)
        assert result.output_size == 1
        assert result.statistics.discarded_forward >= 1

    def test_backward_subsumption_removes_previously_retained_clauses(self):
        tgds = parse_tgds(
            """
            A(?x1, ?x2), C(?x1) -> B(?x1).
            A(?x1, ?x2) -> B(?x1).
            """
        )
        # the weaker clause is processed first (equal sizes are FIFO, but the
        # stronger one arrives second), so backward subsumption must kick in
        result = saturate(ExbDR(), tgds)
        assert result.output_size == 1

    def test_worked_off_size_is_reported(self):
        tgds, _ = running_example()
        result = saturate(HypDR(), tgds)
        assert result.worked_off_size >= result.output_size


class TestSettings:
    def test_disabling_subsumption_keeps_more_clauses(self):
        tgds, _ = running_example()
        with_subsumption = saturate(SkDR(RewritingSettings()), tgds)
        without_subsumption = saturate(
            SkDR(RewritingSettings(use_subsumption=False)), tgds
        )
        assert (
            without_subsumption.worked_off_size
            >= with_subsumption.worked_off_size
        )

    def test_disabling_subsumption_preserves_answers(self):
        from repro.chase import certain_base_facts
        from repro.datalog import materialize

        tgds, instance = running_example()
        result = rewrite(
            tgds, algorithm="skdr", settings=RewritingSettings(use_subsumption=False)
        )
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        assert facts == certain_base_facts(instance, tgds)

    def test_exact_subsumption_setting(self):
        tgds, _ = running_example()
        result = saturate(
            ExbDR(RewritingSettings(exact_subsumption=True)), tgds
        )
        assert result.completed

    def test_timeout_zero_stops_immediately(self):
        tgds, _ = running_example()
        result = saturate(
            ExbDR(RewritingSettings(timeout_seconds=0.0)), tgds
        )
        assert not result.completed
        assert result.statistics.timed_out

    def test_max_clauses_limit(self):
        tgds, _ = running_example()
        result = saturate(
            SkDR(RewritingSettings(max_clauses=1)), tgds
        )
        assert not result.completed

    def test_result_helpers(self):
        tgds, _ = running_example()
        result = saturate(HypDR(), tgds)
        assert result.output_size == len(result.datalog_rules)
        assert result.blowup() == pytest.approx(
            result.output_size / result.statistics.input_size
        )
        assert result.max_body_atoms() >= 1
        assert len(result.program()) == result.output_size
