"""``python -m repro report <run-dir>`` — one unified run report.

A *run directory* is whatever a traced run left behind; the report
command stitches every artifact it recognizes into one text + JSON
summary:

* ``*.events.jsonl``      — flight-recorder streams (from ``trace
  --format jsonl`` or ``kvtraffic --trace-dir``): op-latency rollup
  by span name;
* ``slo.json``            — the SLO monitor's windows, summary and
  anomaly flags (from ``kvtraffic --slo-target-us``);
* ``links.json``          — the noisiest links, exhausted requests
  and repair-policy decisions (from ``kvtraffic --link-trace``);
* ``campaign.json``       — a sweep campaign's manifest (from
  ``python -m repro campaign``): per-cell statuses and the spec
  that produced them.

Output is ``report.txt`` (also printed) and ``report.json`` in the
same directory, so a CI artifact of the run dir is self-describing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from typing import Dict, List, Optional

from repro.obs.events import EventLog, OP_BEGIN, OP_END
from repro.obs.export import load_jsonl
from repro.obs.slo import render_slo


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return sorted_vals[idx]


def op_latency_table(log: EventLog) -> List[dict]:
    """Per-span-name latency rollup from OP_BEGIN/OP_END pairs."""
    begins: Dict[int, object] = {}
    durs: Dict[str, List[float]] = {}
    for e in log:
        if e.op < 0:
            continue
        if e.kind == OP_BEGIN:
            begins[e.op] = e
        elif e.kind == OP_END:
            b = begins.pop(e.op, None)
            if b is None:
                continue
            name = str(b.attrs.get("name", "op"))
            durs.setdefault(name, []).append(max(e.t - b.t, 0.0))
    rows = []
    for name in sorted(durs):
        vals = sorted(durs[name])
        rows.append({
            "name": name,
            "count": len(vals),
            "mean_us": sum(vals) / len(vals),
            "p50_us": _percentile(vals, 0.50),
            "p99_us": _percentile(vals, 0.99),
            "max_us": vals[-1],
        })
    return rows


def analyze_events(path: str) -> dict:
    log = load_jsonl(path)
    return {
        "path": os.path.basename(path),
        "events": len(log),
        "dropped": log.dropped_events,
        "ops": op_latency_table(log),
    }


def _render_events(a: dict) -> List[str]:
    lines = [f"events: {a['path']} — {a['events']} events "
             f"({a['dropped']} dropped)"]
    if a["ops"]:
        lines.append(f"  {'span':<14} {'count':>7} {'mean_us':>9} "
                     f"{'p50_us':>8} {'p99_us':>8} {'max_us':>9}")
        for r in a["ops"]:
            lines.append(
                f"  {r['name']:<14} {r['count']:>7} "
                f"{r['mean_us']:>9.2f} {r['p50_us']:>8.2f} "
                f"{r['p99_us']:>8.2f} {r['max_us']:>9.2f}")
    return lines


def _render_links(doc: dict) -> List[str]:
    """Noisy-link + repair-policy rollup from links.json."""
    noisy = doc.get("noisy_links", [])
    lines = [f"links: {len(noisy)} noisy, "
             f"{doc.get('failures', 0)} exhausted request(s)"]
    if noisy:
        lines.append(f"  {'link':<8} {'timeouts':>9} {'retries':>8}")
        for r in noisy:
            lines.append(f"  {r['src']}->{r['dst']:<5} "
                         f"{r['timeouts']:>9} {r['retries']:>8}")
    policy = doc.get("policy")
    if policy:
        lines.append(f"  policy {policy['name']}: "
                     f"{len(policy.get('decisions', []))} decision(s), "
                     f"digest {int(policy['digest']):#018x}")
        for d in policy.get("decisions", [])[:8]:
            lines.append(
                f"    t={d['t_us']:>9.1f}us {d['src']}->{d['dst']} "
                f"{d['action']} -> {d['mode']}")
    return lines


def _render_campaign(doc: dict) -> List[str]:
    """Per-cell status rollup from a campaign.json manifest."""
    cells = doc.get("cells", [])
    statuses: Dict[str, int] = {}
    for c in cells:
        statuses[c["status"]] = statuses.get(c["status"], 0) + 1
    rollup = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    lines = [f"campaign: {doc.get('campaign', '?')} — "
             f"{doc.get('n_cells', len(cells))} cell(s), "
             f"{doc.get('workers', '?')} worker(s); {rollup or 'none'}"]
    bad = [c for c in cells if c["status"] not in ("ok",)]
    for c in bad[:8]:
        lines.append(f"  [{c['status']}] {c['id']}")
    return lines


def build_report(run_dir: str) -> dict:
    """Scan ``run_dir`` and assemble the unified report dict."""
    report: dict = {"run_dir": os.path.abspath(run_dir),
                    "events": [], "slo": None,
                    "links": None, "campaign": None}
    for path in sorted(glob.glob(os.path.join(run_dir,
                                              "*.events.jsonl"))):
        report["events"].append(analyze_events(path))
    slo_path = os.path.join(run_dir, "slo.json")
    if os.path.exists(slo_path):
        with open(slo_path, encoding="utf-8") as fh:
            report["slo"] = json.load(fh)
    links_path = os.path.join(run_dir, "links.json")
    if os.path.exists(links_path):
        with open(links_path, encoding="utf-8") as fh:
            report["links"] = json.load(fh)
    campaign_path = os.path.join(run_dir, "campaign.json")
    if os.path.exists(campaign_path):
        with open(campaign_path, encoding="utf-8") as fh:
            report["campaign"] = json.load(fh)
    return report


def render_report(report: dict) -> str:
    lines = [f"run report: {report['run_dir']}"]
    for a in report["events"]:
        lines.append("")
        lines.extend(_render_events(a))
    if report["slo"]:
        s = report["slo"]
        lines.append("")
        lines.append(render_slo(s["windows"], s["summary"],
                                s.get("anomalies", [])))
    if report.get("links"):
        lines.append("")
        lines.extend(_render_links(report["links"]))
    if report.get("campaign"):
        lines.append("")
        lines.extend(_render_campaign(report["campaign"]))
    if not (report["events"] or report["slo"] or report.get("links")
            or report.get("campaign")):
        lines.append("  (no recognized artifacts — expected "
                     "*.events.jsonl, slo.json, links.json or "
                     "campaign.json)")
    return "\n".join(lines)


def report_main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render one unified report (text + JSON) from a "
                    "traced run directory: op-latency rollup, SLO "
                    "windows, anomaly flags, noisy links.")
    ap.add_argument("run_dir", metavar="RUN-DIR",
                    help="directory holding run artifacts "
                         "(*.events.jsonl, slo.json, links.json)")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="where to write report.txt/report.json "
                         "(default: the run dir itself)")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.run_dir):
        ap.error(f"not a directory: {args.run_dir}")

    report = build_report(args.run_dir)
    text = render_report(report)
    out_dir = args.out or args.run_dir
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, "report.txt")
    json_path = os.path.join(out_dir, "report.json")
    from repro.campaign.artifacts import atomic_write_json
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    atomic_write_json(json_path, report, indent=1, sort_keys=True)
    print(text)
    print(f"\n  wrote {txt_path}")
    print(f"  wrote {json_path}")
    return 0
