"""Fleet telemetry: rings, collector, gauges, exporters, byte-identity."""

from __future__ import annotations

import json

import pytest

from repro.obs import Observability
from repro.obs.fleet import (
    DEFAULT_RING_CAPACITY,
    FleetGauge,
    FleetGaugeSet,
    FleetTelemetry,
    SeriesRing,
)


def _armed(fleet=True, journeys=False):
    return Observability.enabled(
        trace=False, metrics=False, fleet=fleet, journeys=journeys
    )


class TestSeriesRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SeriesRing(0)

    def test_push_and_read_in_order(self):
        ring = SeriesRing(4)
        for i in range(3):
            ring.push(float(i), float(i * 10))
        assert ring.samples() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert ring.last == (2.0, 20.0)
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_eviction_counts_dropped_and_keeps_newest(self):
        ring = SeriesRing(3)
        for i in range(5):
            ring.push(float(i), float(i))
        assert ring.dropped == 2
        assert ring.samples() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
        assert len(ring) == 3

    def test_empty_ring_has_no_last(self):
        assert SeriesRing(2).last is None
        assert SeriesRing(2).samples() == []


class TestFleetTelemetry:
    def test_push_creates_rings_lazily(self):
        fleet = FleetTelemetry()
        fleet.push("n1", "load", 0.0, 2.0)
        fleet.push("n0", "load", 0.0, 1.0)
        fleet.push("n1", "queue", 1.0, 3.0)
        assert fleet.nodes() == ["n0", "n1"]
        assert fleet.series_names() == ["load", "queue"]
        assert fleet.series("n1", "load") == [(0.0, 2.0)]
        assert fleet.series("n1", "missing") == []

    def test_tick_runs_hooks_then_probes(self):
        fleet = FleetTelemetry()
        order = []
        fleet.add_tick_hook(lambda t: order.append(("hook", t)))
        fleet.add_probe("n0", "depth", lambda: order.append(("probe", None)) or 7.0)
        fleet.tick(1.5)
        assert order == [("hook", 1.5), ("probe", None)]
        assert fleet.series("n0", "depth") == [(1.5, 7.0)]
        assert fleet.ticks == 1

    def test_latest_and_dropped(self):
        fleet = FleetTelemetry(capacity=2)
        for i in range(4):
            fleet.push("n0", "load", float(i), float(i))
        assert fleet.latest() == {("n0", "load"): 3.0}
        assert fleet.dropped_samples() == 2

    def test_capacity_and_interval_validation(self):
        with pytest.raises(ValueError):
            FleetTelemetry(capacity=0)
        with pytest.raises(ValueError):
            FleetTelemetry(interval_s=0.0)
        assert FleetTelemetry().capacity == DEFAULT_RING_CAPACITY

    def test_jsonl_rows_sorted_by_node_series_then_time(self):
        fleet = FleetTelemetry()
        fleet.push("n1", "load", 0.0, 1.0)
        fleet.push("n0", "load", 0.0, 2.0)
        fleet.push("n0", "load", 1.0, 3.0)
        rows = [json.loads(line) for line in fleet.to_jsonl_lines()]
        assert [(r["node"], r["series"], r["t"]) for r in rows] == [
            ("n0", "load", 0.0),
            ("n0", "load", 1.0),
            ("n1", "load", 0.0),
        ]

    def test_write_jsonl_roundtrip(self, tmp_path):
        fleet = FleetTelemetry()
        fleet.push("n0", "load", 0.5, 1.0)
        path = tmp_path / "fleet.jsonl"
        assert fleet.write_jsonl(str(path)) == 1
        assert json.loads(path.read_text()) == {
            "node": "n0", "series": "load", "t": 0.5, "v": 1.0
        }

    def test_prometheus_snapshot_shape(self):
        fleet = FleetTelemetry()
        fleet.push("n0", "load", 0.0, 1.0)
        fleet.push("n1", "load", 0.0, 2.5)
        text = fleet.prometheus_text(extra={"slo_breaches": 3.0})
        lines = text.splitlines()
        assert "# TYPE repro_fleet_load gauge" in lines
        assert 'repro_fleet_load{node="n0"} 1' in lines
        assert 'repro_fleet_load{node="n1"} 2.5' in lines
        assert "repro_fleet_slo_breaches 3" in lines
        assert lines[-1] == "repro_fleet_dropped_samples 0"

    def test_prometheus_sanitizes_series_names(self):
        fleet = FleetTelemetry()
        fleet.push("n0", "weird-name.s", 0.0, 1.0)
        assert "repro_fleet_weird_name_s" in fleet.prometheus_text()


class TestFleetGauges:
    def test_gauge_samples_on_boundary_crossings(self):
        fleet = FleetTelemetry()
        state = {"v": 1.0}
        gauge = FleetGauge(fleet, "n0", "depth", lambda: state["v"], 1.0)
        gauge.on_sim_event(0.0)
        state["v"] = 9.0
        gauge.on_sim_event(0.5)  # inside the window: skipped
        gauge.on_sim_event(1.2)
        assert fleet.series("n0", "depth") == [(0.0, 1.0), (1.2, 9.0)]

    def test_gauge_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            FleetGauge(FleetTelemetry(), "n0", "s", lambda: 0.0, 0.0)
        with pytest.raises(ValueError):
            FleetGaugeSet(FleetTelemetry(), -1.0)

    def test_gauge_set_shares_one_boundary(self):
        fleet = FleetTelemetry()
        gauges = FleetGaugeSet(fleet, 1.0)
        gauges.add("n0", "a", lambda: 1.0)
        gauges.add("n1", "b", lambda: 2.0)
        assert len(gauges) == 2
        gauges.on_sim_event(0.0)
        gauges.on_sim_event(0.5)
        gauges.on_sim_event(1.5)
        assert fleet.series("n0", "a") == [(0.0, 1.0), (1.5, 1.0)]
        assert fleet.series("n1", "b") == [(0.0, 2.0), (1.5, 2.0)]

    def test_entry_added_mid_run_waits_for_next_boundary(self):
        fleet = FleetTelemetry()
        gauges = FleetGaugeSet(fleet, 1.0)
        gauges.add("n0", "a", lambda: 1.0)
        gauges.on_sim_event(0.0)
        gauges.add("n1", "b", lambda: 2.0)
        gauges.on_sim_event(0.2)  # inside the shared window
        assert fleet.series("n1", "b") == []
        gauges.on_sim_event(1.1)
        assert fleet.series("n1", "b") == [(1.1, 2.0)]

    def test_zero_duration_run_samples_nothing(self):
        fleet = FleetTelemetry()
        FleetGaugeSet(fleet, 1.0).add("n0", "a", lambda: 1.0)
        assert fleet.series("n0", "a") == []

    def test_interval_longer_than_run_samples_once(self):
        fleet = FleetTelemetry()
        gauges = FleetGaugeSet(fleet, 100.0)
        gauges.add("n0", "a", lambda: 1.0)
        for t in (0.0, 0.5, 1.0, 2.0):
            gauges.on_sim_event(t)
        assert fleet.series("n0", "a") == [(0.0, 1.0)]


class TestSustainedIntegration:
    """Armed sustained runs: byte-identity, shared cadence, thin-view
    utilization (docs/OBSERVABILITY.md, "Fleet telemetry")."""

    def _run(self, obs=None):
        from repro.cluster.sustained import run_sustained
        from repro.cluster.topology import build_preset

        return run_sustained(build_preset("cluster_32", seed=3), obs=obs)

    def test_armed_run_byte_identical_to_unarmed(self):
        bare = self._run()
        armed_obs = _armed(fleet=True, journeys=True)
        armed = self._run(obs=armed_obs)
        assert armed.to_json() == bare.to_json()
        assert armed_obs.fleet.ticks > 0
        assert armed_obs.journeys.journeys

    def test_utilization_json_shape_unchanged_when_armed(self):
        # The legacy utilization sampler is now a thin view over the
        # shared FleetTelemetry tick: values and serialization must not
        # move when the collector is armed.
        bare = self._run().report.to_dict()["utilization"]
        armed = self._run(obs=_armed(fleet=True)).report.to_dict()["utilization"]
        assert armed == bare
        assert all(
            isinstance(row, list) and len(row) == 4 for row in bare
        )

    def test_per_node_series_recorded_on_the_shared_cadence(self):
        obs = _armed(fleet=True)
        res = self._run(obs=obs)
        fleet = obs.fleet
        names = fleet.series_names()
        for series in (
            "load",
            "in_flight_migrations",
            "migrations_out",
            "gossip_staleness_s",
            "suspected_peers",
        ):
            assert series in names
        # Phase-1 per-node load samples ride the exact utilization ticks.
        times = [s.time for s in res.report.utilization]
        node = next(n for n in fleet.nodes() if fleet.series(n, "load"))
        assert [t for t, _ in fleet.series(node, "load")] == times
        # migrations_out is a per-node cumulative counter bounded by the
        # run's decision log.
        outs = sum(
            fleet.series(n, "migrations_out")[-1][1]
            for n in fleet.nodes()
            if fleet.series(n, "migrations_out")
        )
        assert 0 < outs <= res.report.migrations
        per_node = fleet.series(node, "migrations_out")
        assert all(
            a[1] <= b[1] for a, b in zip(per_node, per_node[1:])
        )

    def test_phase2_residency_series_present(self):
        obs = _armed(fleet=True)
        self._run(obs=obs)
        names = obs.fleet.series_names()
        for series in ("resident_pages", "remote_pages", "deputy_queue_depth_s"):
            assert series in names

    def test_golden_sustained_scenario_unperturbed_by_fleet(self):
        from repro.check.golden import SCENARIOS, run_scenario

        scenario = next(s for s in SCENARIOS if s.name == "cluster_32_threshold")
        bare = run_scenario(scenario)
        armed = run_scenario(scenario, obs=_armed(fleet=True, journeys=True))
        assert armed == bare


class TestChaosIntegration:
    def test_armed_chaos_cell_record_identical(self):
        from repro.cluster.chaos import chaos_cell

        bare, _ = chaos_cell("pair", "AMPoM", seed=1)
        armed, _ = chaos_cell(
            "pair", "AMPoM", seed=1, obs=_armed(fleet=True, journeys=True)
        )
        assert armed == bare

    def test_detection_latency_surfaced_per_node(self):
        from repro.cluster.chaos import chaos_cell

        run, violation = chaos_cell("pair", "AMPoM", seed=1)
        assert violation is None
        assert run.detections >= 1
        assert "home" in run.detection_latency_by_node
        assert run.detection_latency_by_node["home"] > 0.0


class TestHeatmapFigure:
    def test_matrix_shape_and_determinism(self):
        from repro.experiments.figures import cluster_node_heatmap

        a = cluster_node_heatmap("cluster_32", policy="threshold", seed=0)
        b = cluster_node_heatmap("cluster_32", policy="threshold", seed=0)
        assert a == b
        assert a["series"] == "load"
        assert a["nodes"]
        assert len(a["values"]) == len(a["nodes"])
        assert all(len(row) == len(a["times"]) for row in a["values"])
