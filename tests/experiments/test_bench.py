"""The throughput bench harness (repro.experiments.bench / `repro bench`)."""

from __future__ import annotations

import json
import os
import platform

from repro.experiments import bench


def _noop():
    return None


class TestHarness:
    def test_calibration_positive(self):
        assert bench.calibrate(repeats=1) > 0.0

    def test_time_case_counts_runs(self):
        times = bench.time_case(_noop, repeats=3)
        assert len(times) == 3
        assert all(t >= 0.0 for t in times)

    def test_run_bench_record_shape(self):
        record = bench.run_bench(repeats=2, cases={"noop": _noop})
        assert record["format"] == bench.BENCH_FORMAT
        assert record["repeats"] == 2
        case = record["cases"]["noop"]
        assert case["min_s"] == min(case["times_s"])
        assert case["score"] == case["min_s"] / record["calibration_s"]
        assert case["events_fired"] == 0
        prov = record["provenance"]
        assert set(prov) == {"commit", "dirty", "repro_env", "python", "numpy", "cpu_count"}
        assert all(k.startswith("REPRO_") for k in prov["repro_env"])

    def test_provenance_lists_repro_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "1")
        prov = bench.provenance()
        assert prov["repro_env"]["REPRO_CHECKS"] == "1"
        assert prov["cpu_count"] == os.cpu_count()
        assert prov["python"] == platform.python_version()

    def test_count_events_is_a_deterministic_work_count(self):
        counts = [bench.count_events(bench.CASES["demand_paging"]) for _ in range(2)]
        assert counts[0] == counts[1] > 0

    def test_default_cases_cover_throughput_suite(self):
        assert set(bench.CASES) == {
            "local_fast",
            "demand_paging",
            "ampom_pipeline",
            "random_faults",
            "three_hop",
            "node_churn",
            "ampom_traced",
            "ampom_checked",
            "cluster_sustained",
            "cluster_sustained_telemetry",
            "cluster_300_smoke",
            "arena",
        }

    def test_traced_case_runs_with_obs_armed(self):
        from repro.obs import Observability

        obs = Observability.enabled()
        result = bench.CASES["ampom_traced"](obs=obs)
        assert obs.tracer.spans
        obs.tracer.verify_budget(result.budget)

    def test_checked_case_runs_checker_and_oracle(self):
        from unittest import mock

        from repro.check import DifferentialOracle, InvariantChecker

        with mock.patch.object(
            DifferentialOracle, "verify_analysis", autospec=True,
            side_effect=DifferentialOracle.verify_analysis,
        ) as oracle, mock.patch.object(
            InvariantChecker, "final_audit", autospec=True,
            side_effect=InvariantChecker.final_audit,
        ) as audit:
            checked = bench.CASES["ampom_checked"]()
        assert oracle.call_count > 0 and audit.call_count == 1
        plain = bench.CASES["ampom_pipeline"]()
        assert checked.counters.as_dict() == plain.counters.as_dict()

    def test_write_record_roundtrip(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = bench.write_record(record, tmp_path / "out" / "bench.json")
        assert json.loads(path.read_text()) == record


class TestHistory:
    def test_append_history_accumulates_lines(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = tmp_path / "history.jsonl"
        bench.append_history(record, path, timestamp="2026-08-08T00:00:00+00:00")
        bench.append_history(record, path, timestamp="2026-08-08T01:00:00+00:00")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [entry["ts"] for entry in lines] == [
            "2026-08-08T00:00:00+00:00",
            "2026-08-08T01:00:00+00:00",
        ]
        entry = lines[0]
        assert entry["format"] == bench.BENCH_FORMAT
        assert set(entry["cases"]) == {"noop"}
        assert entry["provenance"] == record["provenance"]
        # Trend fields only — raw samples are deliberately dropped.
        assert set(entry["cases"]["noop"]) == {"min_s", "score", "events_fired"}

    def test_append_history_stamps_wallclock_when_unset(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = bench.append_history(record, tmp_path / "h.jsonl")
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["ts"]


def _record(scores):
    return {
        "format": bench.BENCH_FORMAT,
        "cases": {name: {"score": s} for name, s in scores.items()},
    }


class TestRegressionGate:
    def test_within_limit_passes(self):
        base = _record({"a": 100.0, "b": 10.0})
        cur = _record({"a": 110.0, "b": 12.0})
        assert bench.compare(cur, base, max_regression=0.25) == []

    def test_breach_reported_per_case(self):
        base = _record({"a": 100.0, "b": 10.0})
        cur = _record({"a": 200.0, "b": 10.0})
        breaches = bench.compare(cur, base, max_regression=0.25)
        assert len(breaches) == 1
        assert breaches[0].startswith("a:")
        assert "2.00x" in breaches[0]

    def test_speedups_never_fail(self):
        base = _record({"a": 100.0})
        cur = _record({"a": 1.0})
        assert bench.compare(cur, base) == []

    def test_new_case_ignored_against_old_baseline(self):
        base = _record({"a": 100.0})
        cur = _record({"a": 100.0, "brand_new": 5.0})
        assert bench.compare(cur, base) == []

    def test_committed_baseline_parses(self):
        import pytest

        if not bench.DEFAULT_BASELINE.is_file():
            pytest.skip("baseline not found relative to cwd")
        baseline = json.loads(bench.DEFAULT_BASELINE.read_text())
        assert baseline["format"] == bench.BENCH_FORMAT
        assert set(bench.CASES) <= set(baseline["cases"])


class TestComparableBaseline:
    """`--against` refuses a baseline recorded under other REPRO_* settings."""

    @staticmethod
    def _with_env(record, env):
        return {**record, "provenance": {"repro_env": env}}

    def test_same_settings_are_comparable(self):
        base = self._with_env(_record({"a": 1.0}), {"REPRO_CHECKS": "1"})
        cur = self._with_env(_record({"a": 1.0}), {"REPRO_CHECKS": "1"})
        assert bench.env_differences(cur, base) == []

    def test_missing_provenance_counts_as_no_variables(self):
        plain = _record({"a": 1.0})
        assert bench.env_differences(self._with_env(plain, {}), plain) == []
        checked = self._with_env(plain, {"REPRO_CHECKS": "1", "REPRO_JOBS": "2"})
        assert bench.env_differences(checked, plain) == ["REPRO_CHECKS", "REPRO_JOBS"]

    def test_changed_value_differs(self):
        base = self._with_env(_record({"a": 1.0}), {"REPRO_JOBS": "2"})
        cur = self._with_env(_record({"a": 1.0}), {"REPRO_JOBS": "auto"})
        assert bench.env_differences(cur, base) == ["REPRO_JOBS"]

    def test_cli_exits_2_naming_the_variables(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_record({"a": 1.0})))
        checked = self._with_env(_record({"a": 1.0}), {"REPRO_CHECKS": "1"})
        checked["calibration_s"] = 1.0
        checked["cases"]["a"].update(min_s=1.0, events_fired=0)
        monkeypatch.setattr(bench, "run_bench", lambda repeats: checked)
        rc = main([
            "bench", "--quick", "--out", str(tmp_path / "out.json"),
            "--history", "none", "--against", str(baseline),
        ])
        out = capsys.readouterr().out
        assert rc == 2
        refusal = [line for line in out.splitlines() if "not comparable" in line]
        assert len(refusal) == 1 and "REPRO_CHECKS" in refusal[0]
