"""Real-path benchmark of the XLUPC runtime model.

Runs one workload through the real runtime (op engine, address cache,
transport, progress engine, handlers), checks its outputs, and prints
every metric by name with its unit; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

    python3 perfbench/run.py --workload pointer_miss --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs;
``--trace 1`` adds a traced run and a flight-recorder run and reports
the per-layer metrics.  ``--sweep`` runs the KV rate sweep instead
(see README.md).  Exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END: List[Tuple[str, str]] = [
    ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("virtual_us", "us"), ("req_p50_us", "us"), ("req_p99_us", "us"),
    ("req_p999_us", "us"),
]

#: Input sets (derived seeds) one run measures.  Simulated metrics
#: vary with the inputs, not with the host; pooling several input sets
#: per run narrows their spread across ``--seed`` values.
INPUT_SETS = 3

#: Passes of the host-speed reference loop before each repetition.
LOOPS_PER_REP = 6

#: The rate sweep's p99 latency limit (µs) and the mean per-client
#: arrival gaps it offers (µs), lightest load first.
SWEEP_P99_LIMIT_US = 250.0
SWEEP_GAPS_US = (200.0, 100.0, 70.0, 35.0, 17.5, 8.0, 4.0)


def _layer_metrics() -> List[Tuple[str, str]]:
    from layers import LAYERS
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "fraction")]
        if layer != "workloads":
            out.append((f"{layer}.calls", "count"))
    return out + [
        ("sim.events", "count"), ("sim.events_per_s", "1/s"),
        ("runtime.remote_ops", "count"),
        ("runtime.rdma_fraction", "fraction"),
        ("runtime.lock_acquires", "count"),
        ("runtime.bulk_messages", "count"),
        ("runtime.bulk_coalesced_segments", "count"),
        ("core.cache.hits", "count"), ("core.cache.misses", "count"),
        ("core.cache.hit_rate", "fraction"),
        ("core.cache.evictions", "count"),
        ("core.cache.invalidations", "count"),
        ("transport.am_requests", "count"), ("transport.rdma_gets", "count"),
        ("transport.rdma_puts", "count"), ("transport.bytes_am", "B"),
        ("transport.bytes_rdma", "B"),
        ("network.progress.max_backlog", "count"),
        ("vt.software_us", "us"), ("vt.queue_us", "us"), ("vt.wire_us", "us"),
        ("vt.handler_us", "us"),
        ("service.onesided_ops", "count"), ("service.rpc_ops", "count"),
        ("faults.injected", "count"), ("faults.timeouts", "count"),
        ("faults.retries", "count"), ("faults.policy_actions", "count"),
        ("faults.failover_ops", "count"),
        ("faults.delivery_ratio", "fraction"),
        ("load.late_frac", "fraction"), ("load.late_max_us", "us"),
        ("trace.overhead_ratio", "ratio"),
    ]


def percentile_with_tail(values, q: float, tail: int = 10):
    """Nearest-rank ``q``-quantile, or None when fewer than ``tail``
    samples lie beyond it."""
    import numpy as np
    n = len(values)
    rank = max(1, math.ceil(round(q * n, 6)))
    if n - rank < tail:
        return None
    return float(np.partition(values, rank - 1)[rank - 1])


def stamp(workload) -> Dict[str, str]:
    """Provenance printed next to every result."""
    import numpy as np
    return {"git_sha": _git_sha(), "cpus": str(os.cpu_count()),
            "python": platform.python_version(), "numpy": np.__version__,
            "caches": ("start empty" if workload.kind == "dis" else
                       "start as the preload leaves them")}


def _git_sha() -> str:
    """HEAD's commit id when the checkout is a git work tree (git looks
    no further up than the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def input_seeds(seed: int) -> List[int]:
    """The input sets one run measures: :data:`INPUT_SETS` seeds that
    no other ``--seed`` shares."""
    return [seed * INPUT_SETS + i for i in range(INPUT_SETS)]


def measure(workload, seed: int, seconds: float):
    """Untraced repetitions cycling over the run's input sets until each
    ran once and one ran twice, then until ``seconds`` have passed.

    Returns the repetitions (each with the request count its input set
    holds), the first repetition of each input set, the set-up times of
    the repetitions and of ``workload.setup_reps`` setup-only runs
    before each, the factor that scales this run's host times to the
    nominal host (:mod:`hostspeed`, timed before each repetition), and
    the failed checks: every output is checked against its reference
    and every repeated input set must reproduce its first repetition
    exactly.
    """
    from hostspeed import reference_loop_s, scale_factor
    seeds = input_seeds(seed)
    refs = {s: workload.reference(s) for s in seeds}
    reps, first, setups, loops, errors = [], {}, [], [], []
    t0 = perf_counter()
    while len(reps) <= len(seeds) or perf_counter() - t0 < seconds:
        s = seeds[len(reps) % len(seeds)]
        expected, ops = refs[s]
        loops += [reference_loop_s() for _ in range(LOOPS_PER_REP)]
        setups += [workload.setup(s) for _ in range(workload.setup_reps)]
        rep = workload.run(s, expected=expected)
        setups.append(rep.setup_s)
        errors += rep.errors
        if s not in first:
            first[s] = rep
        elif rep.fingerprint != first[s].fingerprint:
            errors.append(f"input set {s}: repetition {len(reps)} differs "
                          f"from the first in its simulated statistics")
        rep.rt = None   # keep one runtime alive at a time
        reps.append((ops, rep))
        gc.collect()
    scale = scale_factor(loops)
    return reps, [first[s] for s in seeds], setups, scale, errors


def end_to_end(reps, firsts, setups, scale: float) -> Dict[str, float]:
    """Host metrics are medians scaled to the nominal host:
    ``ops_per_s`` over all repetitions, ``setup_s`` over all set-up
    times; simulated metrics come from one repetition of each input
    set, latency quantiles from all their requests pooled."""
    import numpy as np
    lat = np.concatenate([r.latency_us for r in firsts])
    out = {
        "ops_per_s": statistics.median(ops / r.run_s for ops, r in reps)
        / scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "virtual_us": statistics.median(r.virtual_us for r in firsts),
    }
    for name, q in (("req_p50_us", 0.50), ("req_p99_us", 0.99),
                    ("req_p999_us", 0.999)):
        value = percentile_with_tail(lat, q)
        if value is None:
            raise SystemExit(f"{name}: {len(lat)} samples leave fewer than "
                             f"10 beyond the quantile")
        out[name] = value
    return out


def per_layer(workload, seed: int, seconds: float):
    """Untraced/traced pairs on the run's first input set until
    ``seconds`` have passed (at least one pair), then one
    flight-recorder run for the virtual-time split."""
    from layers import LAYERS, traced
    from spantrace import SpanTracer
    from workloads import vt_split
    from repro.obs.events import EventLog

    seed = input_seeds(seed)[0]
    expected, ops = workload.reference(seed)
    errors: List[str] = []
    ratios = []
    failed = 0
    t0 = perf_counter()
    while not ratios or perf_counter() - t0 < seconds:
        base = workload.run(seed, expected=expected)
        tracer = SpanTracer()
        with traced(tracer):
            rep = workload.run(seed, expected=expected)
        errors += base.errors + rep.errors
        failed += base.failed + rep.failed
        if rep.fingerprint != base.fingerprint:
            errors.append("traced run's simulated statistics differ from "
                          "the untraced run's")
        ratios.append(rep.run_s / base.run_s)
        rep = None
        gc.collect()
    log = EventLog()
    workload.run(seed, events=log)
    split = vt_split(log)
    log = None

    rt = base.rt
    m, cs, tc = rt.metrics, rt.aggregate_cache_stats(), \
        rt.cluster.transport.counters
    shares = tracer.shares()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        out[f"{layer}.share"] = shares.get(layer, 0.0)
        if layer != "workloads":
            out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    wire_ops = tc.am_requests + tc.rdma_gets + tc.rdma_puts
    late = base.lateness_us
    out.update({
        "sim.events": rt.sim.events_processed,
        "sim.events_per_s": rt.sim.events_processed / base.run_s,
        "runtime.remote_ops": m.remote_ops,
        "runtime.rdma_fraction": m.rdma_fraction,
        "runtime.lock_acquires": m.lock_acquires,
        "runtime.bulk_messages": m.bulk_messages,
        "runtime.bulk_coalesced_segments": m.bulk_coalesced_segments,
        "core.cache.hits": cs.hits, "core.cache.misses": cs.misses,
        "core.cache.hit_rate": cs.hit_rate,
        "core.cache.evictions": cs.evictions,
        "core.cache.invalidations": cs.invalidations,
        "transport.am_requests": tc.am_requests,
        "transport.rdma_gets": tc.rdma_gets,
        "transport.rdma_puts": tc.rdma_puts,
        "transport.bytes_am": tc.bytes_am,
        "transport.bytes_rdma": tc.bytes_rdma,
        "network.progress.max_backlog": m.max_backlog,
        "vt.software_us": split["software"], "vt.queue_us": split["queue"],
        "vt.wire_us": split["wire"], "vt.handler_us": split["handler"],
        "service.onesided_ops": m.kv_onesided_ops,
        "service.rpc_ops": m.kv_rpc_ops,
        "faults.injected": m.faults_injected, "faults.timeouts": m.timeouts,
        "faults.retries": m.retries,
        "faults.policy_actions": m.policy_actions,
        "faults.failover_ops": m.kv_failover_ops,
        "faults.delivery_ratio": (wire_ops / (wire_ops + m.retries)
                                  if wire_ops else 1.0),
        "load.late_frac": float((late > 0).mean()) if len(late) else 0.0,
        "load.late_max_us": float(late.max()) if len(late) else 0.0,
        "trace.overhead_ratio": statistics.median(ratios),
    })
    return out, errors, 2 * len(ratios) * ops, failed


def sweep(seed: int) -> int:
    """KV latency at a few offered rates; the highest rate whose p99
    meets :data:`SWEEP_P99_LIMIT_US` without a growing backlog."""
    from dataclasses import replace
    from workloads import KVParams, run_kv
    base = KVParams(seed=seed)
    best = None
    print(f"# kv_mixed rate sweep, seed {seed}, p99 limit "
          f"{SWEEP_P99_LIMIT_US} us")
    print(f"{'gap_us':>8} {'offered_req_per_s':>18} {'p50_us':>9} "
          f"{'p99_us':>9} {'late_frac':>9} {'late_q1_us':>10} "
          f"{'late_q4_us':>10} {'backlog':>8}")
    rows = []
    for gap in SWEEP_GAPS_US:
        rep = run_kv(replace(base, mean_gap_us=gap))
        if rep.errors or rep.failed:
            print(f"gap {gap}: output check failed: {rep.errors}",
                  file=sys.stderr)
            return 1
        rate = base.nthreads / gap * 1e6
        lat = rep.latency_us
        p50, p99 = percentile_with_tail(lat, 0.5), percentile_with_tail(
            lat, 0.99)
        q1, q4 = _lateness_quarters(rep.lateness_us, base)
        growing = q4 > q1 + gap
        print(f"{gap:8.1f} {rate:18.0f} {p50:9.2f} {p99:9.2f} "
              f"{float((rep.lateness_us > 0).mean()):9.3f} {q1:10.2f} "
              f"{q4:10.2f} {'growing' if growing else 'steady':>8}")
        rows.append({"gap_us": gap, "offered_req_per_s": rate,
                     "req_p50_us": p50, "req_p99_us": p99,
                     "backlog_growing": growing})
        if p99 <= SWEEP_P99_LIMIT_US and not growing:
            best = rate if best is None else max(best, rate)
    print(json.dumps({"sweep": rows, "max_rate_meeting_limit": best}))
    return 0


def _lateness_quarters(lateness, p) -> Tuple[float, float]:
    """Mean lateness over each client's first and last quarter of
    requests: a backlog that keeps growing shows as q4 well above q1."""
    per = lateness.reshape(p.nthreads, p.requests_per_client)
    k = max(1, p.requests_per_client // 4)
    return float(per[:, :k].mean()), float(per[:, -k:].mean())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="pointer_miss")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="run the KV rate sweep instead")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS
    if args.sweep:
        return sweep(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]

    for key, value in stamp(workload).items():
        print(f"# {key}: {value}")

    if args.trace:
        metrics, errors, attempted, failed = per_layer(
            workload, args.seed, args.seconds)
        units = dict(_layer_metrics())
    else:
        reps, firsts, setups, scale, errors = measure(
            workload, args.seed, args.seconds)
        metrics = end_to_end(reps, firsts, setups, scale)
        units = dict(END_TO_END)
        attempted = sum(ops for ops, _ in reps)
        failed = sum(r.failed for _, r in reps)
        for ops, rep in reps:
            print(f"# repetition: {ops} ops, setup {rep.setup_s:.4f} s, "
                  f"run {rep.run_s:.4f} s")
        print(f"# host-speed scale: {scale:.4f} (host times below are "
              f"multiplied by it)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
