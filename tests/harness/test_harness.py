"""Tests for the benchmark harness: runner, statistics, and reports."""

import pytest

from repro.harness.runner import BenchmarkRunner, RunRecord, run_on_tgds
from repro.harness.reports import (
    cactus_report,
    end_to_end_report,
    figure_summary_report,
    format_table,
    full_figure_report,
    pairwise_report,
    table1_report,
)
from repro.harness.stats import (
    both_fail_matrix,
    cactus_series,
    inputs_unprocessed_by_all,
    pairwise_slowdown_matrix,
    summarize,
)
from repro.workloads.ontology_suite import generate_suite, suite_statistics


@pytest.fixture(scope="module")
def mini_suite():
    return generate_suite(count=3, seed=11, min_axioms=8, max_axioms=24)


@pytest.fixture(scope="module")
def mini_records(mini_suite):
    runner = BenchmarkRunner(timeout_seconds=10.0, include_kaon2=True)
    return runner.run_suite(mini_suite, algorithms=("exbdr", "skdr", "hypdr"))


class TestRunner:
    def test_records_cover_all_algorithm_input_pairs(self, mini_suite, mini_records):
        assert len(mini_records) == len(mini_suite) * 4  # three algorithms + kaon2

    def test_record_fields(self, mini_records):
        record = mini_records[0]
        assert record.input_size > 0
        assert record.output_size >= 0
        assert record.elapsed_seconds >= 0.0
        assert isinstance(record.as_dict(), dict)

    def test_blowup_property(self):
        record = RunRecord(
            algorithm="x", input_id="i", input_size=10, output_size=15,
            max_body_atoms=2, elapsed_seconds=0.1, timed_out=False,
        )
        assert record.blowup == pytest.approx(1.5)
        empty = RunRecord(
            algorithm="x", input_id="i", input_size=0, output_size=0,
            max_body_atoms=0, elapsed_seconds=0.0, timed_out=False,
        )
        assert empty.blowup == 0.0

    def test_run_on_tgds(self, running):
        tgds, _ = running
        result, elapsed = run_on_tgds(tgds, "hypdr", timeout_seconds=10.0)
        assert result.completed
        assert elapsed >= 0.0

    def test_timeout_marks_record(self, mini_suite):
        runner = BenchmarkRunner(timeout_seconds=0.0, include_kaon2=False)
        record = runner.run_algorithm("exbdr", mini_suite[-1])
        assert record.timed_out
        assert not record.succeeded

    def test_progress_callback(self, mini_suite):
        seen = []
        runner = BenchmarkRunner(timeout_seconds=5.0, include_kaon2=False)
        runner.run_suite(
            mini_suite[:1], algorithms=("hypdr",), progress=lambda a, i: seen.append((a, i))
        )
        assert seen == [("hypdr", mini_suite[0].identifier)]


class TestStats:
    def test_summaries_per_algorithm(self, mini_records):
        summaries = summarize(mini_records)
        names = {summary.algorithm for summary in summaries}
        assert names == {"exbdr", "skdr", "hypdr", "kaon2"}
        for summary in summaries:
            assert summary.processed_inputs + summary.failed_inputs + summary.unsupported_inputs == 3
            assert summary.min_time <= summary.median_time <= summary.max_time

    def test_cactus_series_are_sorted(self, mini_records):
        for series in cactus_series(mini_records).values():
            times = [time for _, time in series]
            assert times == sorted(times)

    def test_pairwise_matrices_shape(self, mini_records):
        slowdown = pairwise_slowdown_matrix(mini_records)
        failures = both_fail_matrix(mini_records)
        algorithms = {"exbdr", "skdr", "hypdr", "kaon2"}
        assert {pair[0] for pair in slowdown} == algorithms
        assert all(count >= 0 for count in slowdown.values())
        assert all(count >= 0 for count in failures.values())

    def test_inputs_unprocessed_by_all(self):
        records = [
            RunRecord("a", "i1", 1, 1, 1, 0.1, timed_out=True),
            RunRecord("b", "i1", 1, 1, 1, 0.1, timed_out=True),
            RunRecord("a", "i2", 1, 1, 1, 0.1, timed_out=False),
            RunRecord("b", "i2", 1, 1, 1, 0.1, timed_out=True),
        ]
        assert inputs_unprocessed_by_all(records) == ("i1",)

    def test_slowdown_matrix_counts_timeouts_as_slow(self):
        records = [
            RunRecord("fast", "i1", 1, 1, 1, 0.01, timed_out=False),
            RunRecord("slow", "i1", 1, 1, 1, 1.0, timed_out=True),
        ]
        matrix = pairwise_slowdown_matrix(records)
        assert matrix[("slow", "fast")] == 1
        assert matrix[("fast", "slow")] == 0


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["col", "n"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_table1_report(self, mini_suite):
        text = table1_report(suite_statistics(mini_suite), len(mini_suite))
        assert "Table 1" in text
        assert "Full TGDs" in text and "Non-Full TGDs" in text

    def test_figure_summary_report(self, mini_records):
        text = figure_summary_report(mini_records, "Figure 4 (test)")
        assert "Figure 4 (test)" in text
        assert "# of Processed Inputs" in text
        assert "hypdr" in text

    def test_cactus_and_pairwise_reports(self, mini_records):
        assert "Cactus plot" in cactus_report(mini_records)
        pairwise = pairwise_report(mini_records)
        assert "time(Y)/time(X)" in pairwise
        assert "both fail" in pairwise

    def test_full_figure_report_combines_sections(self, mini_records):
        text = full_figure_report(mini_records, "Figure")
        assert text.count("\n\n") >= 2

    def test_end_to_end_report(self):
        rows = [
            {
                "input_id": "00001",
                "rule_count": 10,
                "input_facts": 100,
                "output_facts": 450,
                "elapsed_seconds": 0.5,
            }
        ]
        text = end_to_end_report(rows)
        assert "Table 2" in text
        assert "00001" in text
        assert "4.5" in text


class TestPerfCapture:
    def test_incremental_updates_scenario(self):
        from repro.harness.perfcapture import capture_incremental_updates

        payload = capture_incremental_updates(
            suite_size=2, max_axioms=20, top_k=1, fact_count=150, repeats=1
        )
        assert payload["rows"], "no completed rewriting to measure"
        assert payload["all_consistent"], (
            "delta propagation diverged from full re-materialization"
        )
        assert payload["speedup_delta_vs_full"] > 1.0
        for row in payload["rows"]:
            assert row["delta_facts"] >= 1
            assert row["base_facts"] + row["delta_facts"] <= row["output_facts"]

    def test_churn_scenario(self):
        from repro.harness.perfcapture import capture_churn

        payload = capture_churn(
            suite_size=2, max_axioms=20, top_k=1, fact_count=150,
            op_count=4, repeats=1,
        )
        assert payload["rows"], "no completed rewriting to measure"
        assert payload["all_consistent"], (
            "DRed retraction diverged from full re-materialization"
        )
        assert payload["speedup_churn_vs_full"] > 1.0
        dred = payload["dred"]
        assert dred["retracted"] > 0
        assert dred["rounds"] > 0
        # over-deletion never removes more than it first suspects
        assert dred["net_removed"] <= dred["retracted"] + dred["overdeleted"]
        for row in payload["rows"]:
            assert row["ops"] >= 2
            assert row["consistent"]

    def test_skolem_chase_scenario(self):
        from repro.harness.perfcapture import capture_skolem_chase

        payload = capture_skolem_chase(
            suite_size=2, max_axioms=14, fact_count=50, repeats=1
        )
        assert payload["rows"], "no chase input measured"
        assert payload["all_consistent"], (
            "semi-naive chase diverged from the naive reference"
        )
        assert payload["status"] == "completed"
        assert payload["speedup_vs_pre_change"] is not None
        chase_plan = payload["chase_plan"]
        assert chase_plan["rounds"] > 0
        assert chase_plan["probes"] > 0
        assert chase_plan["delta_facts"] > 0
        for row in payload["rows"]:
            assert row["output_facts"] >= row["input_facts"]

    def test_guarded_oracle_scenario(self):
        from repro.harness.perfcapture import capture_guarded_oracle

        payload = capture_guarded_oracle(suite_size=2, max_axioms=14, fact_count=30)
        assert payload["rows"], "no oracle input measured"
        assert payload["all_consistent"], (
            "worklist engine diverged from the recursive reference"
        )
        assert payload["status"] == "completed"
        assert payload["speedup_vs_pre_change"] is not None
        chase_plan = payload["chase_plan"]
        assert chase_plan["types_closed"] > 0
        assert chase_plan["rounds"] > 0

    def test_chase_blocks_render_in_reports(self):
        from repro.harness.reports import render_capture

        payload = {
            "scale": "smoke",
            "wall_seconds": 1.0,
            "scenario_filter": ["guarded_oracle", "skolem_chase"],
            "scenarios": {
                "skolem_chase": {
                    "wall_seconds": 0.5,
                    "status": "completed",
                    "rows": [{"input_id": "00001"}],
                    "speedup_vs_pre_change": 7.5,
                    "all_consistent": True,
                    "chase_plan": {
                        "rounds": 4,
                        "max_delta": 12,
                        "probes": 100,
                        "probe_hits": 150,
                    },
                },
                "guarded_oracle": {
                    "wall_seconds": 0.5,
                    "status": "completed",
                    "rows": [{"input_id": "00001"}],
                    "speedup_vs_pre_change": 2.5,
                    "all_consistent": False,
                    "chase_plan": {
                        "rounds": 6,
                        "max_delta": 9,
                        "types_closed": 11,
                        "types_reused": 40,
                        "imports": 3,
                    },
                },
            },
        }
        text = render_capture(payload)
        # one chase_plan table, a column per scenario, a row per counter
        assert "\nchase_plan\nfield" in text
        rows = [line.split() for line in text.splitlines()]
        assert ["speedup_vs_pre_change", "7.5"] in rows
        markdown = render_capture(payload, markdown=True)
        assert "### chase_plan" in markdown
        assert "| field | skolem_chase | guarded_oracle |" in markdown
        assert "| rounds | 4 | 6 |" in markdown
        assert "| types_closed | – | 11 |" in markdown
        assert "| probes | 100 | – |" in markdown
        # the diverged guarded run surfaces as its failed check, in both
        assert ["guarded_oracle", "all_consistent"] in rows
        assert "| guarded_oracle | all_consistent |" in markdown
        assert "| skolem_chase | 0.5 | completed | – | ok |" in markdown

    def test_inconsistent_run_renders_even_without_a_speedup(self):
        # a diverged run whose ratio came out falsy (None/0.0) must still
        # surface the divergence in both report formats
        from repro.harness.reports import render_capture

        payload = {
            "scale": "smoke",
            "wall_seconds": 1.0,
            "scenario_filter": ["skolem_chase"],
            "scenarios": {
                "skolem_chase": {
                    "wall_seconds": 0.5,
                    "status": "completed",
                    "speedup_vs_pre_change": None,
                    "all_consistent": False,
                    "chase_plan": {"rounds": 0, "max_delta": 0, "probes": 0},
                },
            },
        }
        for rendered in (render_capture(payload), render_capture(payload, True)):
            assert "Failed checks" in rendered
            assert "all_consistent" in rendered
            assert "speedup_vs_pre_change is not None" in rendered

    def test_compare_captures_reports_ratios(self):
        from repro.harness.perfcapture import compare_captures

        current = {
            "scale": "smoke",
            "scenarios": {"end_to_end": {"wall_seconds": 1.0}},
        }
        previous = {
            "scale": "smoke",
            "scenarios": {"end_to_end": {"wall_seconds": 2.0}},
        }
        assert compare_captures(current, previous) == {"end_to_end": 2.0}

    def test_compare_captures_rejects_scale_mismatch(self):
        from repro.harness.perfcapture import compare_captures

        result = compare_captures({"scale": "smoke"}, {"scale": "default"})
        assert "error" in result

    def test_compare_captures_skips_status_changed_scenarios(self):
        # a scenario that used to time out and now completes measures
        # different work: no ratio must be reported for it (it would read
        # as a wall-time regression), only the status transition
        from repro.harness.perfcapture import (
            compare_captures,
            compare_scenario_statuses,
        )

        current = {
            "scale": "default",
            "scenarios": {
                "fulldr_comparison": {
                    "wall_seconds": 4.0,
                    "status": "completed",
                },
                "end_to_end": {"wall_seconds": 1.0, "status": "completed"},
            },
        }
        previous = {
            "scale": "default",
            "scenarios": {
                "fulldr_comparison": {
                    "wall_seconds": 2.0,
                    "status": "timed_out",
                },
                "end_to_end": {"wall_seconds": 2.0, "status": "completed"},
            },
        }
        assert compare_captures(current, previous) == {"end_to_end": 2.0}
        assert compare_scenario_statuses(current, previous) == {
            "fulldr_comparison": {
                "baseline": "timed_out",
                "current": "completed",
            }
        }

    def test_compare_scenario_statuses_ignores_captures_without_flags(self):
        from repro.harness.perfcapture import compare_scenario_statuses

        current = {
            "scenarios": {"end_to_end": {"wall_seconds": 1.0, "status": "completed"}}
        }
        previous = {"scenarios": {"end_to_end": {"wall_seconds": 2.0}}}
        assert compare_scenario_statuses(current, previous) == {}

    def test_capture_perf_scenario_filter(self):
        from repro.harness.perfcapture import capture_perf

        payload = capture_perf(smoke=True, scenarios=["fulldr_comparison"])
        assert list(payload["scenarios"]) == ["fulldr_comparison"]
        assert payload["scenario_filter"] == ["fulldr_comparison"]
        scenario = payload["scenarios"]["fulldr_comparison"]
        assert scenario["status"] in ("completed", "timed_out")
        assert scenario["match_solver"]["solves"] > 0

    def test_capture_perf_rejects_unknown_scenario(self):
        from repro.harness.perfcapture import capture_perf

        with pytest.raises(ValueError, match="unknown perf scenario"):
            capture_perf(smoke=True, scenarios=["no_such_scenario"])

    def test_gate_fails_on_newly_timed_out_scenario(self):
        from repro.cli import _newly_timed_out_scenarios

        payload = {
            "scenario_status_vs_baseline": {
                "fulldr_comparison": {
                    "baseline": "completed",
                    "current": "timed_out",
                },
                "end_to_end": {
                    "baseline": "timed_out",
                    "current": "completed",
                },
            }
        }
        # completed -> timed_out must trip the gate; the inverse flip is an
        # improvement and must not
        assert _newly_timed_out_scenarios(payload) == ["fulldr_comparison"]
        assert _newly_timed_out_scenarios({}) == []


def _violating_payload():
    """A filtered smoke capture that fails exactly four declared checks."""
    fact_store = {"rows": 9, "term_table_size": 4, "encode_calls": 9}
    return {
        "schema": "bench-rewriting/v1",
        "scale": "smoke",
        "wall_seconds": 1.0,
        "scenario_filter": ["churn", "demand_queries", "serving_throughput"],
        "scenarios": {
            "churn": {
                "wall_seconds": 0.2,
                "status": "completed",
                "rows": [{"input_id": "00001"}],
                "dred": {"retracted": 3, "rounds": 2},
                "fact_store": fact_store,
                "speedup_churn_vs_full": 4.0,
                "all_consistent": False,
            },
            "serving_throughput": {
                "wall_seconds": 0.4,
                "status": "completed",
                "requests": 16,
                "latency_ms": {"p50": 1.0, "p99": 2.0},
                "serving": {"cache_hit_rate": 0.5, "batches": 4},
                "resilience": {
                    "worker_restarts": 1,
                    "task_retries": 0,
                    "timeouts": 0,
                    "sheds": 0,
                },
                "stale_free": False,
            },
            "demand_queries": {
                "wall_seconds": 0.5,
                "status": "completed",
                "rows": [{"query": "C1(c1)"}],
                "magic": {
                    "adorned_rules": 9,
                    "magic_facts": 14,
                    "predicates_touched": 8,
                    "predicates_total": 14,
                },
                "fact_store": fact_store,
                "kb_segments": {
                    "file_bytes": 100,
                    "predicates_loaded": 6,
                    "total_predicates": 14,
                },
                "agreement": False,
            },
        },
    }


VIOLATED = [
    ("churn", "all_consistent"),
    ("serving_throughput", "stale_free is True"),
    ("serving_throughput", "resilience.worker_restarts == 0"),
    ("demand_queries", "agreement is True"),
]


class TestDeclaredChecks:
    def test_failed_checks_names_each_violated_gate(self):
        from repro.harness.perfcapture import failed_checks

        assert sorted(failed_checks(_violating_payload())) == sorted(VIOLATED)

    def test_missing_fields_fail_their_checks_instead_of_raising(self):
        from repro.harness.perfcapture import failed_checks

        payload = {"scenario_filter": ["churn"], "scenarios": {"churn": {}}}
        failed = [check for _, check in failed_checks(payload)]
        assert "wall_seconds > 0" in failed
        assert "all_consistent" in failed
        assert "speedup_churn_vs_full >= 2" in failed

    def test_unfiltered_capture_needs_every_scenario_and_capture_checks(self):
        from repro.harness.perfcapture import SCENARIOS, failed_checks

        failed = failed_checks({"schema": "bench-rewriting/v1", "scenarios": {}})
        assert {name for name, _ in failed} == {
            scenario.name for scenario in SCENARIOS
        } | {"capture"}
        assert ("capture", "interning.overall.hit_rate > 0.5") in failed
        assert ("capture", "schema == bench-rewriting/v1") not in failed

    def test_perf_exits_4_and_names_failed_checks_in_both_renders(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.harness import perfcapture

        monkeypatch.setattr(
            perfcapture, "capture_perf", lambda **_: _violating_payload()
        )
        summary = tmp_path / "summary.md"
        status = main(
            ["perf", "-o", str(tmp_path / "bench.json"), "--step-summary", str(summary)]
        )
        assert status == 4
        captured = capsys.readouterr()
        markdown = summary.read_text(encoding="utf-8")
        for scenario, check in VIOLATED:
            assert check in captured.out
            assert f"| {scenario} | {check} |" in markdown
            assert f"check failed: {scenario}: {check}" in captured.err

    def test_perf_rejects_unknown_scenario_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        status = main(
            ["perf", "--scenario", "no_such", "-o", str(tmp_path / "bench.json")]
        )
        assert status == 2
        assert "unknown perf scenario" in capsys.readouterr().err

    def test_smoke_capture_passes_every_check(self, tmp_path):
        import json

        from repro.cli import main
        from repro.harness.perfcapture import failed_checks

        output = tmp_path / "bench.json"
        assert main(["perf", "--smoke", "-o", str(output)]) == 0
        assert failed_checks(json.loads(output.read_text(encoding="utf-8"))) == []
