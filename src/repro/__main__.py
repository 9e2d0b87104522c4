"""Command-line entry point: regenerate figures, or fuzz the runtime.

Usage::

    python -m repro fig6_get [--quick]
    python -m repro fig6_put
    python -m repro fig7
    python -m repro fig8a | fig8b
    python -m repro fig9a | fig9b
    python -m repro miss_overhead
    python -m repro all [--quick]

    python -m repro fuzz --seed 0 --ops 200 --quick
    python -m repro fuzz --seed 0..9 --ops 500 --matrix full
    python -m repro fuzz --seed 0..24 --faults --fault-profile chaos

    python -m repro trace pointer --quick --format chrome
    python -m repro trace field --breakdown
    python -m repro trace pointer --fault-profile drop --fault-seed 3

    python -m repro run pointer --quick
    python -m repro run field --fault-profile chaos --fault-seed 7

    python -m repro campaign --spec smoke
    python -m repro campaign --spec service --workers 4

``--quick`` truncates size/scale sweeps for a fast look; the full
sweeps match EXPERIMENTS.md.  ``fuzz`` runs the model-based
differential harness (see :mod:`repro.testing`): each seed generates a
race-free random UPC program, replays it across the config matrix, and
compares every result with a flat-memory oracle, shrinking any failure
to a pytest reproducer; ``--faults`` additionally replays each program
under a deterministic fault plan — the reliability layer must still
converge to the oracle.  ``trace`` runs a stressmark with the protocol
flight recorder on and exports Chrome-trace / JSONL / CSV artifacts
plus the latency-breakdown table (see :mod:`repro.obs` and
docs/OBSERVABILITY.md).  ``run`` executes one DIS stressmark plainly
and prints its summary — the quickest way to watch a fault profile
(``--fault-profile``/``--fault-seed``, see docs/FAULTS.md) play out.
``campaign`` runs a declared config matrix across worker processes
with per-cell checkpoints: a killed campaign resumes without
re-executing completed cells, merges into ``BENCH_*`` trajectory
files and renders every figure in one command (docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    GM_SCALES,
    LAPI_SCALES,
    fig6_get,
    fig6_put,
    fig7,
    fig8,
    fig9,
    miss_overhead,
)

_QUICK_SIZES = [1, 64, 1024, 16384, 262144, 4194304]
_QUICK_SCALES = [(8, 2), (32, 8), (128, 32)]
_QUICK_LAPI = [(4, 2), (32, 2), (128, 8)]


def _runners(quick: bool):
    reps = 5 if quick else 10
    sizes = _QUICK_SIZES if quick else None
    gm_scales = _QUICK_SCALES if quick else [s for s in GM_SCALES
                                             if s[0] <= 1024]
    lapi_scales = _QUICK_LAPI if quick else LAPI_SCALES
    fig8_scales = _QUICK_SCALES if quick else GM_SCALES
    seeds = (1, 2) if quick else (1, 2, 3)
    from repro.experiments.capacity import capacity_speedup
    from repro.experiments.scalability import (
        address_space_ablation,
        allocation_latency,
        directory_memory,
    )

    return {
        "fig6_get": lambda: fig6_get(sizes=sizes, reps=reps),
        "fig6_put": lambda: fig6_put(sizes=sizes, reps=reps),
        "fig7": lambda: fig7(reps=reps),
        "fig8a": lambda: fig8("pointer", scales=fig8_scales, seed=1),
        "fig8b": lambda: fig8("neighborhood", scales=fig8_scales, seed=1),
        "fig9a": lambda: fig9("gm", scales=gm_scales, seeds=seeds),
        "fig9b": lambda: fig9("lapi", scales=lapi_scales, seeds=seeds),
        "miss_overhead": lambda: miss_overhead(seeds=(1, 2, 3)),
        "capacity": lambda: capacity_speedup(
            threads=32 if quick else 64, nodes=8 if quick else 16),
        "directory_memory": lambda: directory_memory(),
        "address_ablation": lambda: address_space_ablation(),
        "alloc_latency": lambda: allocation_latency(),
    }


def _parse_seeds(text: str):
    """``"7"`` -> [7]; ``"0..9"`` -> [0, 1, ..., 9] (inclusive)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(
                f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def run_main(argv) -> int:
    """``python -m repro run`` — execute one DIS stressmark and print
    its summary (optionally under a fault profile)."""
    from repro.network.params import MACHINES
    from repro.obs.cli import WORKLOADS, _workload
    from repro.obs.events import EventLog

    ap = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run a DIS stressmark and print its summary; "
                    "--fault-profile injects deterministic faults "
                    "(see docs/FAULTS.md).")
    ap.add_argument("workload", choices=WORKLOADS,
                    help="which stressmark to run")
    ap.add_argument("--quick", action="store_true",
                    help="small problem sizes (smoke mode)")
    ap.add_argument("--nthreads", type=int, default=8,
                    help="UPC threads (default 8)")
    ap.add_argument("--machine", default="gm", choices=sorted(MACHINES),
                    help="machine model (default gm)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fault-profile", default=None, metavar="SPEC",
                    help="fault plan: a profile name (drop, dup, delay, "
                         "stall, pin, chaos), inline JSON, or a JSON "
                         "file path")
    ap.add_argument("--fault-seed", type=int, default=None,
                    help="override the fault plan's RNG seed")
    ap.add_argument("--link-trace", default=None, metavar="SPEC",
                    help="time-evolving link degradation: a shape name "
                         "(flap, burst, degrade, gray), inline JSON, "
                         "or a JSON file path (see docs/FAULTS.md)")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="override the link trace's seed")
    ap.add_argument("--repair-policy", default=None,
                    choices=("do_nothing", "retransmit_tuning",
                             "disable_and_repair", "path_failover"),
                    help="repair policy acting on per-link health "
                         "(needs --link-trace or --fault-profile)")
    args = ap.parse_args(argv)

    fault_plan = None
    if args.fault_profile is not None:
        from repro.faults import resolve_profile
        try:
            fault_plan = resolve_profile(args.fault_profile,
                                         fault_seed=args.fault_seed)
        except ValueError as exc:
            ap.error(str(exc))
    link_trace = None
    if args.link_trace is not None:
        from repro.faults import resolve_trace
        from repro.obs.cli import _cli_nnodes
        try:
            link_trace = resolve_trace(
                args.link_trace,
                _cli_nnodes(args.machine, args.nthreads),
                trace_seed=args.trace_seed)
        except ValueError as exc:
            ap.error(str(exc))
    if args.repair_policy and fault_plan is None and link_trace is None:
        ap.error("--repair-policy needs --link-trace or "
                 "--fault-profile to observe")

    runner = _workload(args.workload, args.quick, args.machine,
                       args.nthreads, args.seed,
                       EventLog(enabled=False), None,
                       fault_plan=fault_plan, link_trace=link_trace,
                       repair_policy=args.repair_policy)
    t0 = time.time()
    result = runner()
    run = result.run
    m = run.metrics
    print(f"run {args.workload}: {run.elapsed_us:.1f} virtual us, "
          f"{run.sim_events} sim events, remote ops "
          f"{m.remote_ops} (rdma share {m.rdma_fraction:.0%}), "
          f"cache hit rate {run.cache_stats.hit_rate:.3f} "
          f"({time.time() - t0:.1f}s)")
    if fault_plan is not None or link_trace is not None:
        print(f"  faults: {m.faults_injected} injected, "
              f"{m.timeouts} timeouts, {m.retries} retries, "
              f"{m.rdma_timeouts} rdma->am fallbacks, "
              f"{m.pin_degrades} degraded handles")
        noisy = m.noisy_links(3)
        if noisy:
            links = ", ".join(
                f"{r['src']}->{r['dst']} ({r['timeouts']}t/"
                f"{r['retries']}r)" for r in noisy)
            print(f"  noisy links: {links}")
    if args.repair_policy:
        print(f"  policy {args.repair_policy}: {m.policy_actions} "
              f"action(s), {m.kv_failover_ops} kv failover op(s)")
    return 0


def fuzz_main(argv) -> int:
    from repro.testing import MATRICES, config_by_name, fuzz

    ap = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differential fuzz: random race-free UPC programs "
                    "replayed across the config matrix against a "
                    "flat-memory oracle.")
    ap.add_argument("--seed", type=_parse_seeds, default=[0],
                    help="seed N or inclusive range A..B (default 0)")
    ap.add_argument("--ops", type=int, default=200,
                    help="approximate ops per generated program")
    ap.add_argument("--nthreads", type=int, default=4,
                    help="UPC threads per program (default 4)")
    ap.add_argument("--matrix", default=None,
                    help="'quick', 'full', or comma-separated config "
                         "point names (default: quick)")
    ap.add_argument("--quick", action="store_true",
                    help="force the quick matrix (smoke mode)")
    ap.add_argument("--corpus", default=None, metavar="DIR",
                    help="serialize shrunk failures as JSON here")
    ap.add_argument("--no-shrink", action="store_true",
                    help="report failures without minimizing them")
    ap.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="dump a flight-recorder JSONL log of each "
                         "shrunk failing program here (CI artifact)")
    ap.add_argument("--faults", action="store_true",
                    help="also replay every program under a "
                         "deterministic fault plan; the reliability "
                         "layer must still match the oracle")
    ap.add_argument("--fault-profile", default="chaos", metavar="SPEC",
                    help="fault plan for --faults: a profile name, "
                         "inline JSON, or a JSON file path "
                         "(default chaos)")
    ap.add_argument("--fault-seed", type=int, default=None,
                    help="base fault RNG seed (each program seed "
                         "derives its own)")
    ap.add_argument("--kv", action="store_true",
                    help="include KV-store ops (kv_create/put/get/"
                         "del/multi-get over both access paths) in "
                         "the generated programs")
    args = ap.parse_args(argv)

    if args.quick or args.matrix is None:
        configs = list(MATRICES["quick"])
    elif args.matrix in MATRICES:
        configs = list(MATRICES[args.matrix])
    else:
        try:
            configs = [config_by_name(n.strip())
                       for n in args.matrix.split(",") if n.strip()]
        except KeyError as exc:
            ap.error(str(exc))

    fault_plan = None
    if args.faults:
        from repro.faults import resolve_profile
        try:
            fault_plan = resolve_profile(args.fault_profile,
                                         fault_seed=args.fault_seed)
        except ValueError as exc:
            ap.error(str(exc))

    t0 = time.time()
    report = fuzz(args.seed, n_ops=args.ops, nthreads=args.nthreads,
                  configs=configs, shrink_failures=not args.no_shrink,
                  corpus_dir=args.corpus, trace_dir=args.trace_dir,
                  fault_plan=fault_plan, kv=args.kv)
    status = "OK" if report.ok else f"{len(report.failures)} FAILURE(S)"
    mode = " [faults]" if args.faults else ""
    if args.kv:
        mode += " [kv]"
    print(f"fuzz{mode}: {report.programs_run} program(s), "
          f"{report.ops_run} ops, {len(report.configs)} configs — "
          f"{status} ({time.time() - t0:.1f}s)")
    return 0 if report.ok else 1


def kvtraffic_main(argv) -> int:
    """``python -m repro kvtraffic`` — open-loop Zipfian KV traffic
    from UPC client threads on the runtime; prints FCT quantiles and
    the address-cache hit rate."""
    from repro.workloads.kv_traffic import TrafficParams, run_kv_traffic

    ap = argparse.ArgumentParser(
        prog="python -m repro kvtraffic",
        description="Open-loop Zipfian/Poisson KV service traffic: UPC "
                    "client threads calling KVStore get/put on the "
                    "runtime (see docs/SERVICE.md).")
    ap.add_argument("--requests", type=int,
                    default=TrafficParams.requests,
                    help="total requests across all clients")
    ap.add_argument("--skew", type=float, default=0.9,
                    help="Zipf exponent s (default 0.9)")
    ap.add_argument("--nclients", type=int, default=32)
    ap.add_argument("--nnodes", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--machine", default="gm")
    ap.add_argument("--slo-target-us", type=float, default=0.0,
                    metavar="US",
                    help="arm the streaming SLO monitor with this "
                         "latency target (µs); prints windowed "
                         "burn-rate / anomaly summary")
    ap.add_argument("--slo-window-us", type=float, default=5000.0,
                    metavar="US",
                    help="SLO rolling-window width in virtual µs "
                         "(default 5000)")
    ap.add_argument("--link-trace", default=None, metavar="SPEC",
                    help="time-evolving link degradation: a shape name "
                         "(flap, burst, degrade, gray), inline JSON, "
                         "or a JSON file path (see docs/FAULTS.md)")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="override the link trace's seed")
    ap.add_argument("--repair-policy", default=None,
                    choices=("do_nothing", "retransmit_tuning",
                             "disable_and_repair", "path_failover"),
                    help="repair policy acting on per-link health "
                         "(needs --link-trace)")
    ap.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="arm the flight recorder and write run "
                         "artifacts (events.jsonl, trace.json, "
                         "slo.json, links.json) here — feed the "
                         "directory to 'python -m repro report'")
    args = ap.parse_args(argv)

    link_trace = None
    if args.link_trace is not None:
        from repro.faults import resolve_trace
        try:
            link_trace = resolve_trace(args.link_trace, args.nnodes,
                                       trace_seed=args.trace_seed)
        except ValueError as exc:
            ap.error(str(exc))
    if args.repair_policy and link_trace is None:
        ap.error("--repair-policy needs --link-trace to observe")

    p = TrafficParams(nnodes=args.nnodes, nclients=args.nclients,
                      requests=args.requests, zipf_s=args.skew,
                      seed=args.seed, machine=args.machine,
                      slo_target_us=args.slo_target_us,
                      slo_window_us=args.slo_window_us,
                      link_trace=(link_trace.to_json()
                                  if link_trace is not None else ""),
                      repair_policy=args.repair_policy or "")
    t0 = time.time()
    try:
        res = run_kv_traffic(p, trace=args.trace_dir is not None)
    except ValueError as exc:
        ap.error(str(exc))
    q = res.quantiles()
    print(f"kvtraffic s={args.skew}: {res.requests} requests "
          f"({res.gets} get / {res.puts} put), hit rate "
          f"{res.hit_rate:.3f} ({res.hits} hit / {res.misses} miss)")
    print(f"  FCT p50={q['p50_us']:.1f}us p99={q['p99_us']:.1f}us  "
          f"hit p50={q['hit_p50_us']:.1f}us  "
          f"miss p50={q['miss_p50_us']:.1f}us  "
          f"({res.events} sim events, {time.time() - t0:.1f}s)")
    slo = res.extra.get("slo")
    if slo is not None:
        from repro.obs.slo import render_slo
        s = slo["summary"]
        print(f"  SLO: burn rate {s['burn_rate']:.2f} over "
              f"{s['windows']} window(s), "
              f"{s['violations']} violation(s) "
              f"({s['violation_frac']:.2%}), "
              f"{len(slo['anomalies'])} anomaly flag(s)")
        if args.trace_dir is None:
            print(render_slo(slo["windows"], s, slo["anomalies"]))
    noisy = res.extra.get("noisy_links")
    if noisy is not None:
        row = ", ".join(f"{r['src']}->{r['dst']} ({r['timeouts']}t/"
                        f"{r['retries']}r)" for r in noisy[:3])
        print(f"  lossy fabric: {res.failures} exhausted request(s); "
              f"noisy links: {row or 'none'}")
    policy = res.extra.get("policy")
    if policy is not None:
        print(f"  policy {policy['name']}: "
              f"{len(policy['decisions'])} decision(s), "
              f"digest {policy['digest']:#018x}")
    if args.trace_dir is not None:
        _write_kvtraffic_artifacts(args.trace_dir, res)
    return 0


def _write_kvtraffic_artifacts(out_dir, res) -> None:
    """Write the kvtraffic run directory ``python -m repro report``
    consumes: the runtime's event log (jsonl + validated Chrome
    trace), slo.json and links.json."""
    import os

    from repro.campaign.artifacts import atomic_write_json
    from repro.obs.export import dump_jsonl, export_chrome

    os.makedirs(out_dir, exist_ok=True)
    log = res.extra["events"]
    path = os.path.join(out_dir, "kvtraffic.events.jsonl")
    n = dump_jsonl(log, path)
    print(f"  wrote {path} ({n} lines)")
    path = os.path.join(out_dir, "kvtraffic.trace.json")
    doc = export_chrome(log, path)
    print(f"  wrote {path} ({len(doc['traceEvents'])} chrome events, "
          "validated)")
    slo = res.extra.get("slo")
    if slo is not None:
        path = atomic_write_json(os.path.join(out_dir, "slo.json"),
                                 slo, indent=1, sort_keys=True)
        print(f"  wrote {path}")
    if "noisy_links" in res.extra:
        doc = {"noisy_links": res.extra["noisy_links"],
               "failures": res.failures}
        policy = res.extra.get("policy")
        if policy is not None:
            doc["policy"] = policy
        path = atomic_write_json(os.path.join(out_dir, "links.json"),
                                 doc, indent=1, sort_keys=True)
        print(f"  wrote {path}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "kvtraffic":
        return kvtraffic_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.cli import trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.obs.report import report_main
        return report_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import campaign_main
        return campaign_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from 'Scalable RDMA performance "
                    "in PGAS languages' (IPDPS 2009) on the simulator.")
    ap.add_argument("figure",
                    choices=sorted(_runners(True)) + ["all", "fuzz",
                                                      "kvtraffic",
                                                      "trace", "run",
                                                      "report",
                                                      "campaign"],
                    help="which figure to regenerate ('fuzz' runs the "
                         "differential harness; 'kvtraffic' the KV "
                         "service traffic harness; 'trace' the flight "
                         "recorder; 'run' one stressmark; 'report' "
                         "renders a unified report from a traced run "
                         "directory; 'campaign' a checkpointed, "
                         "resumable sweep matrix)")
    ap.add_argument("--quick", action="store_true",
                    help="truncate sweeps for a fast look")
    args = ap.parse_args(argv)

    runners = _runners(args.quick)
    names = sorted(runners) if args.figure == "all" else [args.figure]
    for name in names:
        t0 = time.time()
        fig = runners[name]()
        print(fig.render())
        print(f"({time.time() - t0:.1f}s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
