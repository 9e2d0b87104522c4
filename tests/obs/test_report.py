"""The unified run report: CLI round trips through real run
directories produced by ``trace`` and ``kvtraffic --trace-dir``, plus
unit coverage of the analyzers."""

import json

import pytest

from repro.__main__ import main
from repro.obs.events import EventLog, OP_BEGIN, OP_END
from repro.obs.report import (
    build_report,
    op_latency_table,
    render_report,
)


def test_op_latency_table_pairs_spans():
    log = EventLog(enabled=True)
    for i, dur in enumerate((2.0, 4.0)):
        op = log.next_op_id()
        log.emit(10.0 * i, OP_BEGIN, op=op, thread=0, node=0, name="get")
        log.emit(10.0 * i + dur, OP_END, op=op, thread=0, node=0)
    dangling = log.next_op_id()
    log.emit(50.0, OP_BEGIN, op=dangling, thread=0, node=0, name="get")
    (row,) = op_latency_table(log)
    assert row["name"] == "get"
    assert row["count"] == 2          # the dangling begin is ignored
    assert row["mean_us"] == pytest.approx(3.0)
    assert row["max_us"] == pytest.approx(4.0)


def test_report_on_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no recognized artifacts" in out
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.json").exists()


def test_report_rejects_missing_dir(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", str(tmp_path / "nope")])


def test_trace_then_report_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["trace", "field", "--quick", "--format", "jsonl",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "field.events.jsonl" in out
    report = json.loads((run_dir / "report.json").read_text())
    (ev,) = report["events"]
    assert {"barrier", "put"} <= {r["name"] for r in ev["ops"]}


def test_kvtraffic_slo_trace_then_report_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "kvrun"
    assert main(["kvtraffic", "--requests", "3000",
                 "--slo-target-us", "30", "--slo-window-us", "200",
                 "--trace-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "SLO: burn rate" in out
    for name in ("kvtraffic.events.jsonl", "kvtraffic.trace.json",
                 "slo.json"):
        assert (run_dir / name).exists(), name

    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "SLO: target 30.0us" in out
    assert "burn rate" in out
    assert "kv_get" in out
    report = json.loads((run_dir / "report.json").read_text())
    assert report["slo"]["summary"]["count"] > 0
    assert isinstance(report["slo"]["anomalies"], list)


def test_kvtraffic_link_trace_then_report_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "lossy"
    assert main(["kvtraffic", "--requests", "2000", "--link-trace",
                 "flap", "--repair-policy", "disable_and_repair",
                 "--trace-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "noisy links:" in out
    assert "policy disable_and_repair" in out
    doc = json.loads((run_dir / "links.json").read_text())
    assert doc["policy"]["name"] == "disable_and_repair"
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "links:" in out
    assert "policy disable_and_repair" in out
