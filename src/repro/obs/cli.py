"""``python -m repro trace`` — run a workload with the flight recorder.

Examples::

    python -m repro trace pointer --quick --format chrome
    python -m repro trace field --breakdown
    python -m repro trace neighborhood --out traces --format jsonl
    python -m repro trace field --format csv --nthreads 16

Artifacts land in ``--out`` (default ``trace-out/``):

* ``<workload>.trace.json``   — Chrome trace-event JSON (``--format
  chrome``); open in chrome://tracing or Perfetto.  Validated before
  writing.
* ``<workload>.events.jsonl`` — raw event stream (``--format jsonl``).
* ``<workload>.state.csv``    — Paraver-style state intervals, one
  ``thread,state,t0,t1`` row per op span (``--format csv``).
* ``<workload>.breakdown.txt``— the latency decomposition table
  (``--breakdown``; also printed).
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Callable, Dict

from repro.network.params import MACHINES
from repro.obs.breakdown import collect_breakdowns, render_breakdown
from repro.obs.events import EventLog, OP_END
from repro.obs.export import dump_jsonl, dump_state_csv, export_chrome
from repro.obs.sampler import CounterSampler

FORMATS = ("chrome", "jsonl", "csv")


def _cli_nnodes(machine: str, nthreads: int) -> int:
    """Node count a DIS run with machine defaults will use — what
    trace-shape generators need before the Runtime exists."""
    tpn = MACHINES[machine].default_threads_per_node
    return max(1, -(-nthreads // tpn))


def _workload(name: str, quick: bool, machine: str, nthreads: int,
              seed: int, events: EventLog,
              fault_plan=None, link_trace=None,
              repair_policy=None) -> Callable:
    """Build a zero-argument runner for one DIS stressmark."""
    from repro.workloads import (
        CornerTurnParams,
        FieldParams,
        NeighborhoodParams,
        PointerParams,
        TransitiveParams,
        UpdateParams,
        run_corner_turn,
        run_field,
        run_neighborhood,
        run_pointer,
        run_transitive,
        run_update,
    )

    kw = dict(machine=MACHINES[machine], nthreads=nthreads, seed=seed,
              events=events, fault_plan=fault_plan,
              link_trace=link_trace, repair_policy=repair_policy)
    if name == "pointer":
        p = PointerParams(**kw, nelems=1 << 10 if quick else 1 << 14,
                          hops=12 if quick else 48)
        return lambda: run_pointer(p)
    if name == "update":
        p = UpdateParams(**kw, nelems=1 << 10 if quick else 1 << 14,
                         hops=16 if quick else 64)
        return lambda: run_update(p)
    if name == "field":
        p = FieldParams(**kw,
                        nelems=max(2048, nthreads * 16) if quick
                        else 1 << 15,
                        ntokens=2 if quick else 8)
        return lambda: run_field(p)
    if name == "neighborhood":
        p = NeighborhoodParams(**kw, dim=64 if quick else 256,
                               samples=8 if quick else 24,
                               iterations=1 if quick else 2)
        return lambda: run_neighborhood(p)
    if name == "transitive":
        p = TransitiveParams(**kw, nverts=16 if quick else 48)
        return lambda: run_transitive(p)
    if name == "corner_turn":
        p = CornerTurnParams(**kw, dim=32 if quick else 64, tile=8)
        return lambda: run_corner_turn(p)
    raise KeyError(name)


WORKLOADS = ("pointer", "update", "field", "neighborhood",
             "transitive", "corner_turn")


def trace_main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a DIS stressmark with the protocol flight "
                    "recorder on and export the event trace.")
    ap.add_argument("workload", choices=WORKLOADS,
                    help="which stressmark to record")
    ap.add_argument("--out", default="trace-out", metavar="DIR",
                    help="artifact directory (default trace-out)")
    ap.add_argument("--format", dest="formats", action="append",
                    choices=FORMATS, default=None,
                    help="export format; repeatable "
                         "(default: chrome and jsonl)")
    ap.add_argument("--breakdown", action="store_true",
                    help="render the remote-GET latency decomposition")
    ap.add_argument("--quick", action="store_true",
                    help="small problem sizes (smoke mode)")
    ap.add_argument("--nthreads", type=int, default=8,
                    help="UPC threads (default 8)")
    ap.add_argument("--machine", default="gm",
                    choices=sorted(MACHINES),
                    help="machine model (default gm)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fault-profile", default=None, metavar="SPEC",
                    help="fault plan: a profile name (drop, dup, delay, "
                         "stall, pin, chaos), inline JSON, or a JSON "
                         "file path (see docs/FAULTS.md)")
    ap.add_argument("--fault-seed", type=int, default=None,
                    help="override the fault plan's RNG seed")
    ap.add_argument("--link-trace", default=None, metavar="SPEC",
                    help="time-evolving link degradation: a shape name "
                         "(flap, burst, degrade, gray), inline JSON, or "
                         "a JSON file path (see docs/FAULTS.md)")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="override the link trace's seed")
    ap.add_argument("--repair-policy", default=None,
                    choices=("do_nothing", "retransmit_tuning",
                             "disable_and_repair", "path_failover"),
                    help="repair policy acting on per-link health "
                         "(needs --link-trace or --fault-profile)")
    ap.add_argument("--sample-us", type=float, default=100.0,
                    help="counter sampling interval in virtual µs "
                         "(0 disables; default 100)")
    ap.add_argument("--max-events", type=int, default=None,
                    help="flight-recorder memory bound (drop-newest)")
    args = ap.parse_args(argv)
    formats = args.formats or ["chrome", "jsonl"]

    log = EventLog(enabled=True, max_events=args.max_events)
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
                       args.nthreads, args.seed, log,
                       fault_plan=fault_plan, link_trace=link_trace,
                       repair_policy=args.repair_policy)

    t0 = time.time()
    # The sampler needs the Runtime, which the stressmark builds
    # internally — hook the construction point.
    sampler_box = {}
    if args.sample_us > 0:
        from repro.runtime.runtime import Runtime
        orig_init = Runtime.__init__

        def hooked(self, config, sim=None,
                   _orig=orig_init, _box=sampler_box):
            _orig(self, config, sim)
            if config.events is log and "sampler" not in _box:
                sampler = CounterSampler(self,
                                         interval_us=args.sample_us)
                sampler.start()
                _box["sampler"] = sampler

        Runtime.__init__ = hooked
        try:
            result = runner()
        finally:
            Runtime.__init__ = orig_init
    else:
        result = runner()
    wall = time.time() - t0
    sampler = sampler_box.get("sampler")

    os.makedirs(args.out, exist_ok=True)
    artifacts = []
    if "chrome" in formats:
        path = os.path.join(args.out, f"{args.workload}.trace.json")
        doc = export_chrome(log, path,
                            counters=sampler.samples if sampler else None)
        artifacts.append(f"{path} ({len(doc['traceEvents'])} chrome "
                         "events, validated)")
    if "jsonl" in formats:
        path = os.path.join(args.out, f"{args.workload}.events.jsonl")
        n = dump_jsonl(log, path)
        artifacts.append(f"{path} ({n} lines)")
    if "csv" in formats:
        path = os.path.join(args.out, f"{args.workload}.state.csv")
        n = dump_state_csv(log, path)
        artifacts.append(f"{path} ({n} state intervals)")

    run = result.run
    n_ops = sum(1 for e in log if e.kind == OP_END)
    print(f"trace {args.workload}: {run.elapsed_us:.1f} virtual us, "
          f"{run.sim_events} sim events, {len(log)} recorded events "
          f"({log.dropped_events} dropped), {n_ops} ops, "
          f"{len(sampler.samples) if sampler else 0} counter samples "
          f"({wall:.1f}s)")
    if fault_plan is not None or link_trace is not None:
        m = run.metrics
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
        m = run.metrics
        print(f"  policy {args.repair_policy}: {m.policy_actions} "
              f"action(s), {m.kv_failover_ops} kv failover op(s)")
    for line in artifacts:
        print(f"  wrote {line}")

    if args.breakdown:
        table = render_breakdown(collect_breakdowns(log))
        print(table)
        path = os.path.join(args.out, f"{args.workload}.breakdown.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"  wrote {path}")
    return 0
