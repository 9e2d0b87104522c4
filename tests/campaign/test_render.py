"""Campaign rendering: tables, the ASCII CDF figure, n=1 marking."""

import os

from repro.campaign.render import render_campaign, render_cdf_figure


def _cell(kind, payload, cid, status="ok"):
    return {"id": cid, "kind": kind, "params": {}, "seed": 0,
            "status": status, "payload": payload}


def test_cdf_figure_overlays_every_series():
    a = [[10.0, 0.5], [20.0, 1.0]]
    b = [[10.0, 0.3], [40.0, 1.0]]
    text = render_cdf_figure([("fast", a), ("slow", b)], "t")
    assert "t" in text.splitlines()[0]
    body = "\n".join(text.splitlines()[1:])
    assert "o" in body and "x" in body   # both markers drawn
    assert "fast" in text and "slow" in text
    assert "p50=" in text and "p99=" in text
    assert "1.00" in text and "0.50" in text and "0.00" in text


def test_cdf_figure_empty_series():
    assert "no completed flows" in render_cdf_figure(
        [("a", [])], "t")


def test_render_campaign_writes_figures(tmp_path):
    kv_payload = {
        "zipf_s": 0.9, "requests": 100, "hit_rate": 0.2,
        "p50_us": 16.4, "p99_us": 25.0,
        "fct_cdf": [[10.0, 0.5], [30.0, 1.0]],
    }
    lossy = [
        {"shape": "flap", "policy": p, "requests": 100, "failures": 0,
         "p50_us": 16.4, "p99_us": q, "decisions": 2,
         "fct_cdf": [[10.0, 0.5], [q, 1.0]]}
        for p, q in (("do_nothing", 54.0),
                     ("disable_and_repair", 19.8))]
    outcomes = [
        _cell("kvtraffic", kv_payload, "kv-a"),
        _cell("lossy", lossy[0], "lo-a"),
        _cell("lossy", lossy[1], "lo-b"),
        _cell("micro", {"op": "get", "machine": "gm",
                        "size_bytes": 4096, "z_us": 42.0, "w_us": 28.0,
                        "improvement_pct": 33.0}, "mi-a"),
    ]
    paths = render_campaign(str(tmp_path), "t", outcomes)
    names = {os.path.basename(p) for p in paths}
    assert {"campaign_kvtraffic.txt", "kv_fct_cdf.txt",
            "campaign_lossy.txt", "lossy_flap.txt",
            "campaign_micro.txt",
            "campaign_report.txt"} <= names
    flap = open(os.path.join(str(tmp_path), "figures",
                             "lossy_flap.txt")).read()
    assert "repair policy" in flap
    assert "do_nothing" in flap and "disable_and_repair" in flap
    report = open(os.path.join(str(tmp_path),
                               "campaign_report.txt")).read()
    assert "campaign: t" in report
    assert "do_nothing" in report


def test_render_campaign_marks_single_seed_no_ci(tmp_path):
    dis = {"workload": "pointer", "threads": 8, "nodes": 2,
           "machine": "gm", "preset": "small", "capacity": 100,
           "n": 1, "skipped": 0, "improvement_pct": 16.6,
           "ci_half_width": 0.0, "hit_rate": 0.78}
    render_campaign(str(tmp_path), "t", [_cell("dis", dis, "d-a")])
    text = open(os.path.join(str(tmp_path), "figures",
                             "campaign_dis.txt")).read()
    # A single-seed cell must say so, not fake a "± 0.00" interval.
    assert "(n=1, no CI)" in text
    assert "± 0.0" not in text


def test_render_campaign_lists_degenerate_cells(tmp_path):
    ok = {"workload": "field", "threads": 8, "nodes": 2,
          "machine": "gm", "preset": "small", "capacity": 100,
          "n": 2, "skipped": 0, "improvement_pct": 14.0,
          "ci_half_width": 0.1, "hit_rate": 0.9}
    outcomes = [
        _cell("dis", ok, "d-ok"),
        dict(_cell("dis", None, "d-bad", status="degenerate"),
             error="elapsed 0.0 <= 0"),
    ]
    render_campaign(str(tmp_path), "t", outcomes)
    report = open(os.path.join(str(tmp_path),
                               "campaign_report.txt")).read()
    assert "degenerate cells" in report
    assert "d-bad" in report
