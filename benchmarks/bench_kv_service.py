"""KV service-level benchmark: real-path traffic FCT vs. skew and load.

Drives the open-loop KV traffic harness
(:mod:`repro.workloads.kv_traffic`: UPC client threads calling
``KVStore.get/put`` on the runtime) and reports the service-level view
the paper's one-sided-vs-AM comparison predicts:

* **skew rows** — at two Zipf skews on 128 single-thread GM nodes,
  where 127 remote homes overflow the runtime's 100-entry
  remote-address cache: p50/p99 flow-completion time of the whole
  request population and of the cache-hit (RDMA) and cache-miss (AM)
  subpopulations, and the **address-cache hit rate vs. skew** — a
  hotter key distribution concentrates requests on fewer homes, so
  ``s=1.2`` must beat ``s=0.9``;
* **load rows** — the default 8-node cluster at mean gaps that
  straddle saturation of the home nodes: p99 must not fall as the
  offered load rises;
* a **run-to-run identity referee** — the same seed run twice must
  produce identical histograms and counts.

Full mode sustains >= 1M requests across the two skews; ``--quick``
is the CI smoke.

Usage::

    PYTHONPATH=src python benchmarks/bench_kv_service.py          # full
    PYTHONPATH=src python benchmarks/bench_kv_service.py --quick  # CI smoke

Output lands in ``BENCH_kv_service.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.artifacts import atomic_write_json
from repro.campaign.gate import (BaselineError, GateMetric,
                                 check_baseline)
from repro.workloads.kv_traffic import (TrafficParams, TrafficResult,
                                        run_kv_traffic)

SKEWS = (0.9, 1.2)
#: The skew rows' cluster: more remote homes than cache entries.
SKEW_NODES = 128
#: Per-client gap of the skew rows: the hottest home stays unsaturated
#: at s=1.2.
SKEW_GAP_US = 400.0
FULL_REQUESTS = 500_000      # per skew -> 1M total
QUICK_REQUESTS = 25_600      # per skew

#: Per-client mean gaps of the load rows, lightest load first: the
#: default 8-node cluster is unsaturated at 70 µs and saturated by
#: 8.75 µs.
LOAD_GAPS = (70.0, 35.0, 17.5, 8.75)
FULL_LOAD_REQUESTS = 20_000
QUICK_LOAD_REQUESTS = 8_000

REFEREE_REQUESTS = 4_000


def _row(res: TrafficResult, wall_s: float) -> Dict:
    q = res.quantiles()
    return {
        "requests": res.requests,
        "gets": res.gets,
        "puts": res.puts,
        "hit_rate": round(res.hit_rate, 4),
        "p50_us": round(q["p50_us"], 3),
        "p99_us": round(q["p99_us"], 3),
        "hit_p50_us": round(q["hit_p50_us"], 3),
        "hit_p99_us": round(q["hit_p99_us"], 3),
        "miss_p50_us": round(q["miss_p50_us"], 3),
        "miss_p99_us": round(q["miss_p99_us"], 3),
        "final_clock_us": res.now,
        "events": res.events,
        "wall_s": round(wall_s, 3),
        "requests_per_wall_sec": round(res.requests / wall_s)
        if wall_s > 0 else None,
    }


def _timed(p: TrafficParams) -> Tuple[TrafficResult, float]:
    t0 = time.perf_counter()
    res = run_kv_traffic(p)
    return res, time.perf_counter() - t0


def run_referee(seed: int = 11) -> Dict:
    """The same seed twice must give identical histograms, counts and
    SLO windows."""
    p = TrafficParams(requests=REFEREE_REQUESTS, zipf_s=1.05, seed=seed,
                      slo_target_us=100.0, slo_window_us=500.0)
    one = run_kv_traffic(p)
    two = run_kv_traffic(p)
    identical = (np.array_equal(one.hist, two.hist)
                 and np.array_equal(one.hist_hit, two.hist_hit)
                 and np.array_equal(one.hist_miss, two.hist_miss)
                 and (one.requests, one.hits, one.misses, one.puts,
                      one.now, one.events)
                 == (two.requests, two.hits, two.misses, two.puts,
                     two.now, two.events)
                 and one.extra["slo"]["windows"]
                 == two.extra["slo"]["windows"])
    return {"requests": one.requests, "identical_across_runs": identical}


def run_bench(quick: bool = False, seed: int = 7) -> Dict:
    per_skew = QUICK_REQUESTS if quick else FULL_REQUESTS
    rows: List[Dict] = []
    for s in SKEWS:
        res, wall = _timed(TrafficParams(
            nnodes=SKEW_NODES, nclients=SKEW_NODES, requests=per_skew,
            mean_gap_us=SKEW_GAP_US, zipf_s=s, seed=seed))
        row = dict(zipf_s=s, **_row(res, wall))
        rows.append(row)
        print(f"  s={s}: {row['requests']:8d} requests  "
              f"hit_rate={row['hit_rate']:.3f}  "
              f"p50={row['p50_us']:.1f}us p99={row['p99_us']:.1f}us  "
              f"(hit p50 {row['hit_p50_us']:.1f} / miss p50 "
              f"{row['miss_p50_us']:.1f})  {row['wall_s']:.1f}s")
    load_requests = QUICK_LOAD_REQUESTS if quick else FULL_LOAD_REQUESTS
    load: List[Dict] = []
    for gap in LOAD_GAPS:
        res, wall = _timed(TrafficParams(requests=load_requests,
                                         mean_gap_us=gap, seed=seed))
        row = dict(mean_gap_us=gap, **_row(res, wall))
        load.append(row)
        print(f"  gap={gap:6.2f}us: p50={row['p50_us']:8.1f}us "
              f"p99={row['p99_us']:8.1f}us  {row['wall_s']:.1f}s")
    referee = run_referee()
    print(f"  referee: {referee['requests']} requests, "
          f"runs identical={referee['identical_across_runs']}")
    p0 = TrafficParams()
    return {
        "bench": "kv_service",
        "mode": "quick" if quick else "full",
        "cpus": len(os.sched_getaffinity(0)),
        "workload": {
            "nkeys": p0.nkeys,
            "nbuckets": p0.nbuckets,
            "put_frac": p0.put_frac,
            "machine": p0.machine,
            "skew_nodes": SKEW_NODES,
            "skew_gap_us": SKEW_GAP_US,
            "requests_per_skew": per_skew,
            "load_nodes": p0.nnodes,
            "load_clients": p0.nclients,
            "load_requests": load_requests,
            "seed": seed,
        },
        "results": rows,
        "load": load,
        "total_requests": sum(r["requests"] for r in rows),
        "identity": referee,
    }


def _hit_rates(doc: Dict) -> List[Tuple[str, float]]:
    return [(f"s={r['zipf_s']}", r["hit_rate"])
            for r in doc.get("results", [])]


def _one_sided_speedup(doc: Dict) -> List[Tuple[str, float]]:
    """miss_p50/hit_p50 per skew: how much the one-sided (cache-hit)
    path beats the AM path — dimensionless."""
    return [(f"s={r['zipf_s']}", r["miss_p50_us"] / r["hit_p50_us"])
            for r in doc.get("results", []) if r["hit_p50_us"] > 0]


#: ``--baseline`` regression gate (shared machinery in
#: repro.campaign.gate).  Both metrics are dimensionless.  The hit rate
#: includes each node's compulsory misses, a larger share of a short
#: quick run, so it is only compared within a mode.
GATE_METRICS = (
    GateMetric("hit_rate", _hit_rates, skip_cross_mode=True),
    GateMetric("one_sided_speedup", _one_sided_speedup),
)


def check(report: Dict) -> List[str]:
    """Self-consistency gates (run in both modes)."""
    problems = []
    rows = {r["zipf_s"]: r for r in report["results"]}
    lo, hi = rows[min(rows)], rows[max(rows)]
    if not report["identity"]["identical_across_runs"]:
        problems.append("the same seed gave different traffic results")
    if hi["hit_rate"] <= lo["hit_rate"]:
        problems.append(
            f"hit rate did not rise with skew "
            f"({lo['hit_rate']} -> {hi['hit_rate']})")
    for r in report["results"]:
        if r["hit_p50_us"] >= r["miss_p50_us"]:
            problems.append(
                f"s={r['zipf_s']}: one-sided p50 {r['hit_p50_us']} not "
                f"below AM p50 {r['miss_p50_us']}")
    load = report["load"]
    for a, b in zip(load, load[1:]):
        if b["p99_us"] < a["p99_us"]:
            problems.append(
                f"p99 fell as load rose: {a['p99_us']}us at gap "
                f"{a['mean_gap_us']}us -> {b['p99_us']}us at gap "
                f"{b['mean_gap_us']}us")
    if load[-1]["p50_us"] <= 2 * load[0]["p50_us"]:
        problems.append(
            f"load sweep never saturated: p50 {load[0]['p50_us']}us at "
            f"gap {load[0]['mean_gap_us']}us vs {load[-1]['p50_us']}us "
            f"at gap {load[-1]['mean_gap_us']}us")
    if report["mode"] == "full" and report["total_requests"] < 1_000_000:
        problems.append(
            f"full mode sustained only {report['total_requests']} "
            "requests (< 1M)")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced scale for CI smoke")
    ap.add_argument("--out", default="BENCH_kv_service.json",
                    help="where to write the JSON report")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--baseline", default=None,
                    help="committed BENCH_kv_service.json to gate "
                         "against (>20%% regression fails; missing or "
                         "corrupt baseline is an error, not a skip)")
    args = ap.parse_args(argv)

    print(f"kv-service benchmark "
          f"({'quick' if args.quick else 'full'} scale)")
    report = run_bench(quick=args.quick, seed=args.seed)
    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")

    problems = check(report)
    if args.baseline:
        try:
            gate = check_baseline(report, args.baseline, GATE_METRICS)
        except BaselineError as exc:
            print(f"FAIL: {exc}")
            return 1
        for note in gate.notes:
            print(f"  note: {note}")
        problems.extend(gate.problems)
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# pytest entry point (collected only when explicitly requested)
# ---------------------------------------------------------------------------

def test_kv_service_quick():
    """Smoke: quick scale, all self-consistency gates hold."""
    report = run_bench(quick=True)
    assert not check(report)


if __name__ == "__main__":
    sys.exit(main())
