"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main

SMALL = "0.03125"  # 1/32


def test_run_command(capsys):
    rc = main(
        ["run", "--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze time" in out
    assert "fault requests" in out
    assert "AMPoM" in out


def test_run_broadband(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "RandomAccess",
            "--mb",
            "65",
            "--scheme",
            "NoPrefetch",
            "--scale",
            SMALL,
            "--broadband",
        ]
    )
    assert rc == 0
    assert "NoPrefetch" in capsys.readouterr().out


def test_run_with_capacity(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--capacity-pages",
            "200",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "pages evicted" in out


def test_run_json_output(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "AMPoM"
    assert payload["total_time_s"] == pytest.approx(
        payload["freeze_time_s"] + payload["run_time_s"]
    )
    assert "counters" in payload and "budget" in payload


def test_run_with_fault_injection(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--loss-rate",
            "0.01",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "retransmits" in out
    assert "wasted pages" in out


def test_run_fault_json_carries_reliability_counters(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--loss-rate",
            "0.01",
            "--retry-timeout-ms",
            "50",
            "--max-retries",
            "8",
            "--json",
        ]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["messages_dropped"] > 0
    assert counters["retransmits"] > 0
    assert counters["request_timeouts"] > 0


def test_run_json_always_carries_reliability_counters(capsys):
    """Fault-free --json runs report the reliability counters too (as zeros)."""
    import json

    rc = main(
        ["run", "--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL, "--json"]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    for key in (
        "retransmits",
        "request_timeouts",
        "prefetch_writeoffs",
        "deputy_crash_detections",
        "messages_dropped",
        "messages_duplicated",
        "messages_delayed",
    ):
        assert counters[key] == 0


def test_run_with_trace_and_metrics(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--trace",
            str(out),
            "--metrics",
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert "stall_s" in text  # metrics report printed


def test_run_json_with_metrics_embeds_summary(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--metrics",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["metrics"]) == {"histograms", "counters", "gauges"}


def test_trace_run_case(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(["trace", "run", "--case", "ampom_pipeline", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "span-exact" in text
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"


def test_trace_run_custom_cell_flame(capsys):
    rc = main(
        [
            "trace",
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--format",
            "flame",
            "--metrics",
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert "wall %" in text
    assert "dest/migrant" in text


def test_trace_run_inspect_echoes_snapshots(capsys):
    rc = main(
        [
            "trace",
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--format",
            "flame",
            "--inspect",
            "0.05",
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert "[inspect]" in text


def test_trace_run_rejects_mixed_selectors(capsys):
    rc = main(["trace", "run", "--case", "ampom_pipeline", "--kernel", "STREAM"])
    assert rc == 2


def test_trace_run_rejects_incomplete_cell(capsys):
    rc = main(["trace", "run", "--kernel", "STREAM", "--mb", "115"])
    assert rc == 2


def test_freeze_command(capsys):
    rc = main(["freeze", "--kernel", "DGEMM", "--mb", "575", "--scheme", "openMosix"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze time" in out
    assert "575" in out


def test_figure5_command(capsys):
    rc = main(["figure", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 5" in out
    assert "openMosix" in out


def test_figure10_command(capsys):
    rc = main(["figure", "10", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 10" in out


def test_figure8_command(capsys):
    rc = main(["figure", "8", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 8" in out
    assert "STREAM" in out


@pytest.mark.parametrize("number,marker", [(6, "Figure 6"), (7, "Figure 7"), (11, "Figure 11")])
def test_matrix_figure_commands(capsys, number, marker):
    rc = main(["figure", str(number), "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert marker in out
    assert "DGEMM" in out


def test_figure9_command(capsys):
    rc = main(["figure", "9", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 9" in out
    assert "6Mb/s" in out


def test_table1_command(capsys):
    rc = main(["table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "17350" in out  # the largest DGEMM problem size
    assert "RandomAccess" in out


def test_headline_command(capsys):
    rc = main(["headline", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze avoided" in out


def test_export_command(tmp_path, capsys):
    out = tmp_path / "figures.csv"
    rc = main(["export", str(out), "--scale", SMALL])
    assert rc == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "figure,kernel,scheme,x,y"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_invalid_kernel_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--kernel", "HPL", "--mb", "100", "--scheme", "AMPoM"])


def test_cluster_run_preset(capsys):
    rc = main(["cluster", "run", "--preset", "three-hop", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "preset three-hop" in out
    assert "home->n1->n2" in out


def test_cluster_run_spec_file(tmp_path, capsys):
    import json

    spec = tmp_path / "scenario.json"
    spec.write_text(
        json.dumps(
            {
                "nodes": ["home", "n1", "n2"],
                "migrants": [
                    {
                        "kernel": "DGEMM",
                        "memory_mb": 115,
                        "scale": float(SMALL),
                        "scheme": "AMPoM",
                        "path": ["home", "n1", "n2"],
                        "hop_delays": [0.25],
                    }
                ],
            }
        )
    )
    rc = main(["cluster", "run", "--spec", str(spec), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload[0]["path"] == ["home", "n1", "n2"]
    assert payload[0]["total_time_s"] > 0


def test_cluster_run_spec_rejects_preset_options(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text("{}")
    rc = main(["cluster", "run", "--spec", str(spec), "--scheme", "FFA"])
    assert rc == 2
    assert "--preset runs only" in capsys.readouterr().out


def test_bench_help_lists_every_case(capsys):
    from repro.experiments.bench import CASES

    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"Time the {len(CASES)} simulator benchmark cases" in out
    for name in CASES:
        assert name in out


def test_chaos_reports_unsupported_pair_instead_of_crashing(capsys):
    import json

    rc = main(
        ["chaos", "--presets", "three-hop-lossy", "--schemes", "FFA", "--seeds", "0",
         "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["runs"] == []
    assert [(u["preset"], u["scheme"]) for u in payload["unsupported"]] == [
        ("three-hop-lossy", "FFA")
    ]
    assert "FFA" in payload["unsupported"][0]["reason"]


@pytest.mark.parametrize(
    "argv, env",
    [
        (["check", "diff", "--jobs", "many"], None),
        (["check", "record", "--jobs", "two"], None),
        (["figure", "5", "--jobs", "many"], None),
        (["arena", "--jobs", "x"], None),
        (["arena"], "many"),
        (["cluster", "run", "--preset", "cluster_32", "--jobs", "2"], None),
    ],
)
def test_bad_jobs_value_is_a_one_line_usage_error(argv, env, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("REPRO_JOBS", raising=False)
    else:
        monkeypatch.setenv("REPRO_JOBS", env)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err
    if env is not None:
        assert "REPRO_JOBS" in errors[0]
