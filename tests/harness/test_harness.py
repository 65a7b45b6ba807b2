"""Tests for the benchmark harness: runner, statistics, and reports."""

from pathlib import Path

import pytest

from repro.harness.runner import BenchmarkRunner, RunRecord
from repro.harness.reports import format_table, render_capture
from repro.harness.stats import (
    both_fail_matrix,
    cactus_series,
    inputs_unprocessed_by_all,
    pairwise_slowdown_matrix,
    summarize,
)
from repro.workloads.ontology_suite import generate_suite


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

    def test_paper_figures_render_as_metric_by_algorithm_tables(self):
        from repro.harness.perfcapture import select_scenarios

        (scenario,) = select_scenarios(["paper_figures"])
        payload = {
            "scale": "smoke",
            "wall_seconds": 1.0,
            "scenario_filter": ["paper_figures"],
            "scenarios": {"paper_figures": scenario.run(smoke=True)},
        }
        lines = render_capture(payload).splitlines()
        # Figure 4: a row per metric, a column per algorithm (KAON2 included)
        at = lines.index("paper_figures.figure4")
        assert lines[at + 1].split() == ["field", "exbdr", "hypdr", "kaon2", "skdr"]
        assert lines[at + 3].split()[0] == "processed_inputs"
        for title in (
            "paper_figures.table1",
            "paper_figures.figure5",
            "paper_figures.figure4_slowdown",
            "paper_figures.ablation_subsumption",
            "paper_figures.ablation_structural",
        ):
            assert title in lines
        markdown = render_capture(payload, markdown=True)
        assert "### paper_figures.figure4\n\n| field | exbdr | hypdr | kaon2 | skdr |" in markdown
        assert "### paper_figures.figure5\n\n| field | exbdr | hypdr | skdr |" in markdown

    @staticmethod
    def _tables(fields):
        """The rendered ``(title, header, first row)`` of a one-scenario capture."""
        payload = {
            "scale": "smoke",
            "wall_seconds": 1.0,
            "scenario_filter": [],
            "scenarios": {"figures": {"wall_seconds": 1.0, **fields}},
        }
        tables = {}
        heading, *blocks = render_capture(payload).split("\n\n")
        for block in blocks:
            title, header, _, *rows = block.splitlines()
            tables[title] = (header.split(), rows[0].split() if rows else [])
        return tables

    def test_table1_report(self, mini_suite):
        from repro.workloads.ontology_suite import suite_statistics

        tables = self._tables({"table1": suite_statistics(mini_suite)})
        header, first = tables["figures.table1"]
        assert header == ["field", "full", "non_full"]
        assert first[0] == "min"

    def test_figure_summary_report(self, mini_records):
        from repro.harness.perfcapture import _figure_blocks

        tables = self._tables({"figure4": _figure_blocks(mini_records, "figure4")["figure4"]})
        header, first = tables["figures.figure4"]
        assert header == ["field", "exbdr", "hypdr", "kaon2", "skdr"]
        assert first[0] == "processed_inputs"
        assert all(int(count) >= 0 for count in first[1:])

    def test_cactus_and_pairwise_reports(self, mini_records):
        from repro.harness.perfcapture import _figure_blocks

        blocks = _figure_blocks(mini_records, "figure4")
        del blocks["figure4"]
        tables = self._tables(blocks)
        # cactus plot: the x-th row holds each algorithm's x-th fastest time
        header, first = tables["figures.figure4_cactus"]
        assert header == ["rank", "exbdr", "hypdr", "kaon2", "skdr"]
        assert first[0] == "1"
        # the pairwise time(Y)/time(X) >= 10 and both-fail matrices
        for title in ("figures.figure4_slowdown", "figures.figure4_both_fail"):
            header, first = tables[title]
            assert header == ["field", "exbdr", "hypdr", "kaon2", "skdr"]
            assert first[0] == "exbdr"

    def test_end_to_end_report(self):
        rows = [
            {
                "input_id": "00001",
                "rule_count": 10,
                "input_facts": 100,
                "output_facts": 450,
                "wall_seconds": 0.5,
            }
        ]
        header, first = self._tables({"rows": rows})["figures.rows"]
        assert header == ["input_id", "rule_count", "input_facts", "output_facts", "wall_seconds"]
        assert first == ["00001", "10", "100", "450", "0.5"]


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

    def test_paper_claims_fail_when_the_data_contradicts_them(self):
        from repro.harness.perfcapture import failed_checks

        def retained(exbdr, skdr):
            return {"clauses_retained": {"P5.14-ExbDR": exbdr, "P5.14-SkDR": skdr}}

        payload = {
            "scenario_filter": ["end_to_end", "separation_families"],
            "scenarios": {
                # ExbDR's excess over SkDR shrinks from n=2 to n=3
                "separation_families": {
                    "per_n": {"2": retained(12, 6), "3": retained(12, 9)}
                },
                # the fixpoint adds nothing to its input
                "end_to_end": {"rows": [{"input_facts": 5, "output_facts": 5}]},
            },
        }
        failed = failed_checks(payload)
        assert ("separation_families", "per_n: P5.14-ExbDR / P5.14-SkDR grows with n") in failed
        assert ("end_to_end", "rows: some output_facts > input_facts") in failed
        assert ("end_to_end", "rows: output_facts >= input_facts") not in failed

    def test_paper_figure_claims_fail_when_the_data_contradicts_them(self):
        import copy
        import json

        from repro.harness.perfcapture import failed_checks

        smoke = json.loads((REPO_ROOT / "BENCH_smoke.json").read_text(encoding="utf-8"))
        figures = copy.deepcopy(smoke["scenarios"]["paper_figures"])
        payload = {"scenario_filter": ["paper_figures"], "scenarios": {"paper_figures": figures}}
        assert failed_checks(payload) == []

        figures["figure4"]["exbdr"]["max_blowup"] = 20
        figures["figure5_all_guarded"] = False
        row = figures["ablation_subsumption"]["skdr"]
        row["derived_without"] = row["derived_with"] - 1
        figures["ablation_structural"] = {}
        assert sorted(failed_checks(payload)) == [
            ("paper_figures", "ablation_structural"),
            ("paper_figures", "ablation_subsumption: every blowup_factor >= 1"),
            ("paper_figures", "figure4.exbdr.max_blowup < 20"),
            ("paper_figures", "figure5_all_guarded is True"),
        ]

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

    def test_smoke_run_without_output_leaves_the_full_capture_alone(
        self, monkeypatch, tmp_path
    ):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        committed = tmp_path / "BENCH_rewriting.json"
        committed.write_text('{"scale": "default"}\n', encoding="utf-8")
        assert main(["perf", "--smoke", "--scenario", "separation_families"]) == 0
        assert committed.read_text(encoding="utf-8") == '{"scale": "default"}\n'
        smoke = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
        assert smoke["scale"] == "smoke"


REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["BENCH_rewriting.json", "BENCH_smoke.json"])
def test_committed_capture_passes_every_check(name):
    import json

    from repro.harness.perfcapture import failed_checks

    payload = json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
    assert failed_checks(payload) == []
