"""Wall-clock benchmark of the discrete-event core itself.

Not a paper figure — this measures the substrate: events/second of the
pooled fast core (``Simulator(pooled=True)``) against the legacy
reference core (``pooled=False``) on a fixed DIS-mix workload, at
64/256/1024 simulated threads.

The mix is the *Field pathology's* message pattern (§4.6) expressed
directly on the simulator: jittered compute slices, a relaxed AM PUT
per token, blocking boundary-probe AM GET round trips through a
per-node NIC resource (four threads contending for one injection
slot), and a closing barrier.  Driving the pattern at the sim layer —
rather than through the full runtime data plane — isolates the event
core, which is the artifact under test; full-stack bit-identity of the
two cores is refereed separately by the PR 2 fuzz oracle (the
determinism leg below and ``tests/sim/test_pooled_determinism.py``).

Every measured run asserts that both cores produced *bit-identical*
schedules: the same per-token completion trace (values and order), the
same event count, the same final clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_core.py            # full
    PYTHONPATH=src python benchmarks/bench_sim_core.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_sim_core.py \
        --baseline BENCH_sim_core.json                            # regression gate

Output lands in ``BENCH_sim_core.json`` (see docs/PERFORMANCE.md for
how to read it).  Full mode fails unless the 256-thread mix shows a
>= 2x events/sec speedup; ``--baseline`` fails on a >20% regression of
the measured speedup (the dimensionless ratio travels across machines,
absolute events/sec do not).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.campaign.artifacts import atomic_write_json
from repro.campaign.gate import BaselineError, GateMetric
from repro.campaign.gate import check_baseline as shared_check_baseline
from repro.network.params import GM_MARENOSTRUM
from repro.sim.resource import Resource
from repro.sim.simulator import Simulator

#: MareNostrum blades: four threads share one NIC (section 4.6).
THREADS_PER_NODE = 4

THREAD_SWEEP = (64, 256, 1024)

#: The fixed mix: (ntokens, boundary probes per token).
FULL_MIX = (8, 4)
QUICK_MIX = (3, 2)

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                      "tests", "fuzz", "corpus", "seed0-22ops.json")


# ---------------------------------------------------------------------------
# The DIS-mix workload
# ---------------------------------------------------------------------------

class _MixBarrier:
    """Counter barrier releasing through one retained (unpooled) event."""

    __slots__ = ("sim", "n", "count", "gate", "cost")

    def __init__(self, sim: Simulator, n: int, cost: float) -> None:
        self.sim = sim
        self.n = n
        self.count = 0
        self.cost = cost
        self.gate = sim.event("dis-mix-barrier")

    def arrive(self):
        self.count += 1
        gate = self.gate
        if self.count == self.n:
            self.count = 0
            self.gate = self.sim.event("dis-mix-barrier")
            gate.succeed(delay=self.cost)
        return gate


def _jitter(a: int, b: int) -> float:
    """Deterministic hash jitter in [0, 1) — no RNG object on the hot
    path, same sequence in both cores by construction."""
    return ((a * 2654435761 + b * 97003 + 12345) & 1023) / 1024.0


def _dis_thread(sim: Simulator, tid: int, nic: Resource,
                barrier: _MixBarrier, ntokens: int, probes: int,
                trace: List[Tuple[float, int, int]]):
    t = GM_MARENOSTRUM.transport
    wire = GM_MARENOSTRUM.wire_base_us
    o_sw = t.o_sw_us
    o_send = t.o_send_us
    handler = t.svd_lookup_us + t.handler_cpu_us
    for tok in range(ntokens):
        # Scan slice over this thread's block, jittered like Field's
        # data-dependent token matching.
        yield sim.sleep(2.0 + 3.0 * _jitter(tid, tok))
        # Relaxed AM PUT of the scan result (initiator cost only).
        yield sim.sleep(o_sw)
        yield nic.acquire()
        yield sim.sleep(o_send)
        nic.release()
        # Boundary probes: blocking AM GET round trips.
        for _ in range(probes):
            yield sim.sleep(o_sw)             # initiator software
            yield nic.acquire()               # NIC injection slot
            yield sim.sleep(o_send)
            nic.release()
            yield sim.sleep(wire)             # request flight
            yield sim.sleep(0.0)              # target poll dispatch
            yield sim.sleep(handler)          # header handler + SVD
            yield sim.sleep(wire)             # reply flight
            yield sim.sleep(t.o_recv_us)      # initiator receive
        trace.append((sim.now, tid, tok))
    yield barrier.arrive()
    yield sim.sleep(o_sw)                     # barrier exit software
    trace.append((sim.now, tid, -1))


def run_mix(nthreads: int, pooled: bool, ntokens: int,
            probes: int) -> Tuple[List[Tuple[float, int, int]], int,
                                  float, float]:
    """One run; returns (trace, events, final_clock, wall_seconds)."""
    sim = Simulator(pooled=pooled)
    nnodes = max(1, nthreads // THREADS_PER_NODE)
    nics = [Resource(sim, capacity=1, name=f"nic{i}")
            for i in range(nnodes)]
    barrier = _MixBarrier(sim, nthreads, GM_MARENOSTRUM.wire_base_us)
    trace: List[Tuple[float, int, int]] = []
    for tid in range(nthreads):
        sim.process(_dis_thread(sim, tid, nics[tid // THREADS_PER_NODE],
                                barrier, ntokens, probes, trace),
                    name=f"dis{tid}")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return trace, sim.events_processed, sim.now, wall


def measure(nthreads: int, ntokens: int, probes: int,
            repeats: int) -> Dict:
    """Best-of-``repeats`` for both cores + bit-identity assertions."""
    best: Dict[bool, float] = {}
    ref: Dict[bool, Tuple] = {}
    for pooled in (True, False):
        for _ in range(repeats):
            trace, events, final_t, wall = run_mix(
                nthreads, pooled, ntokens, probes)
            if pooled not in best or wall < best[pooled]:
                best[pooled] = wall
            ref[pooled] = (trace, events, final_t)
    trace_p, events_p, t_p = ref[True]
    trace_l, events_l, t_l = ref[False]
    # Bit-identical schedules: same dispatch order, same clock values,
    # same number of kernel events.
    assert trace_p == trace_l, (
        f"nt={nthreads}: pooled/legacy completion traces diverge")
    assert events_p == events_l, (
        f"nt={nthreads}: event counts diverge ({events_p} vs {events_l})")
    assert t_p == t_l, (
        f"nt={nthreads}: final clocks diverge ({t_p} vs {t_l})")
    pooled_eps = events_p / best[True]
    legacy_eps = events_l / best[False]
    return {
        "nthreads": nthreads,
        "events": events_p,
        "final_clock_us": t_p,
        "pooled_wall_s": round(best[True], 6),
        "legacy_wall_s": round(best[False], 6),
        "pooled_events_per_sec": round(pooled_eps),
        "legacy_events_per_sec": round(legacy_eps),
        "speedup": round(pooled_eps / legacy_eps, 3),
        "identical_schedule": True,
    }


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Determinism leg: the PR 2 fuzz oracle as referee
# ---------------------------------------------------------------------------

def run_determinism(corpus_path: str = CORPUS) -> Dict:
    """Replay one fuzz-corpus program through the *full* runtime under
    both cores with the flight recorder on.

    Checks: byte-identical flight-recorder JSONL, identical final
    memory of every live object, and zero divergences from the
    flat-memory oracle on the pooled core.
    """
    import tempfile

    import numpy as np

    from dataclasses import replace as dc_replace

    from repro.obs.events import EventLog
    from repro.obs.export import dump_jsonl
    from repro.runtime.runtime import Runtime
    from repro.testing.oracle import run_oracle
    from repro.testing.program import Program, live_objects_at_end
    from repro.testing.runner import _Driver, config_by_name, run_config

    with open(corpus_path, "r", encoding="utf-8") as fh:
        program = Program.loads(fh.read())
    point = config_by_name("gm-base")

    blobs: List[bytes] = []
    finals: List[Dict] = []
    for pooled in (True, False):
        events = EventLog()
        cfg = dc_replace(
            point.runtime_config(program.nthreads, seed=program.seed or 0),
            events=events)
        rt = Runtime(cfg, sim=Simulator(pooled=pooled))
        driver = _Driver(rt, program)
        rt.spawn(driver.kernel)
        rt.run()
        with tempfile.NamedTemporaryFile(suffix=".jsonl",
                                         delete=False) as tmp:
            path = tmp.name
        try:
            dump_jsonl(events, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        finally:
            os.unlink(path)
        finals.append({obj_id: np.array(driver.objs[obj_id].data,
                                        copy=True)
                       for obj_id in live_objects_at_end(program)
                       if obj_id in driver.objs})

    identical_jsonl = blobs[0] == blobs[1]
    identical_memory = (set(finals[0]) == set(finals[1]) and all(
        np.array_equal(finals[0][k], finals[1][k]) for k in finals[0]))
    divergences = run_config(program, point, run_oracle(program))
    return {
        "corpus": os.path.basename(corpus_path),
        "config": point.name,
        "flight_recorder_bytes": len(blobs[0]),
        "identical_jsonl": identical_jsonl,
        "identical_final_memory": identical_memory,
        "oracle_divergences": len(divergences),
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_bench(quick: bool = False,
              repeats: Optional[int] = None) -> Dict:
    ntokens, probes = QUICK_MIX if quick else FULL_MIX
    if repeats is None:
        repeats = 2 if quick else 3
    results = []
    for nt in THREAD_SWEEP:
        r = measure(nt, ntokens, probes, repeats)
        results.append(r)
        print(f"  nt={nt:5d}: {r['events']:7d} events  "
              f"pooled={r['pooled_events_per_sec']:>9,} ev/s  "
              f"legacy={r['legacy_events_per_sec']:>9,} ev/s  "
              f"speedup={r['speedup']:.2f}x")
    determinism = run_determinism()
    print(f"  determinism: corpus={determinism['corpus']} "
          f"jsonl_identical={determinism['identical_jsonl']} "
          f"memory_identical={determinism['identical_final_memory']} "
          f"oracle_divergences={determinism['oracle_divergences']}")
    speedup_256 = next(r["speedup"] for r in results
                       if r["nthreads"] == 256)
    # Throughput trend across the sweep: events/sec at the largest
    # thread count relative to the smallest.  A per-event core should
    # hold this near (or above) 1.0; a slide below it is a scaling
    # pathology, so the baseline gate tracks it explicitly.
    eps_trend = (results[-1]["pooled_events_per_sec"]
                 / results[0]["pooled_events_per_sec"])
    return {
        "bench": "sim_core",
        "mode": "quick" if quick else "full",
        "cpus": _cpus(),
        "workload": {
            "pattern": "dis-field-mix",
            "machine": GM_MARENOSTRUM.name,
            "threads_per_node": THREADS_PER_NODE,
            "ntokens": ntokens,
            "boundary_probes": probes,
            "repeats": repeats,
        },
        "results": results,
        "speedup_256": speedup_256,
        "pooled_eps_trend": round(eps_trend, 3),
        "determinism": determinism,
    }


def _speedup_by_threads(doc: Dict) -> List[Tuple[str, float]]:
    return [(f"nt={r['nthreads']}", r["speedup"])
            for r in doc.get("results", [])]


def _eps_trend(doc: Dict) -> List[Tuple[str, float]]:
    """Events/sec trend across the thread sweep: eps(largest)/
    eps(smallest).  The speedup ratio can stay flat while absolute
    throughput collapses at high thread counts (both cores slowing
    together) — this dimensionless ratio catches exactly that."""
    if "pooled_eps_trend" in doc:
        return [("trend", doc["pooled_eps_trend"])]
    rows = doc.get("results", [])
    if len(rows) < 2:
        return []
    return [("trend", rows[-1]["pooled_events_per_sec"]
             / rows[0]["pooled_events_per_sec"])]


#: The >20% regression gate, shared machinery in repro.campaign.gate:
#: dimensionless ratios only (speedup, throughput trend) — they travel
#: across machines, absolute events/sec does not.  Cross-mode runs (CI
#: gates --quick against the committed full report) widen the
#: tolerance to 35%: the quick mix is structurally more
#: barrier-dominated, so its ratios sit lower with zero regression.
GATE_METRICS = (
    GateMetric("speedup", _speedup_by_threads),
    GateMetric("pooled_eps_trend", _eps_trend),
)


def check_baseline(report: Dict, baseline_path: str,
                   tolerance: float = 0.20) -> List[str]:
    """Gate this run against a committed baseline; raises
    :class:`BaselineError` if the baseline is missing or corrupt."""
    res = shared_check_baseline(report, baseline_path, GATE_METRICS,
                                tolerance=tolerance)
    for note in res.notes:
        print(f"  note: {note}")
    return res.problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small mix for CI smoke (no 2x gate)")
    ap.add_argument("--out", default="BENCH_sim_core.json",
                    help="where to write the JSON report")
    ap.add_argument("--baseline", default=None,
                    help="committed BENCH_sim_core.json to gate against")
    ap.add_argument("--repeats", type=int, default=None,
                    help="wall-clock repeats per (threads, core) cell")
    args = ap.parse_args(argv)

    print(f"sim-core benchmark ({'quick' if args.quick else 'full'} mix)")
    report = run_bench(quick=args.quick, repeats=args.repeats)
    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")

    rc = 0
    det = report["determinism"]
    if not (det["identical_jsonl"] and det["identical_final_memory"]
            and det["oracle_divergences"] == 0):
        print("FAIL: pooled core is not bit-identical to the legacy "
              "core on the fuzz corpus")
        rc = 1
    if not args.quick and report["speedup_256"] < 2.0:
        print(f"FAIL: 256-thread speedup {report['speedup_256']:.2f}x "
              "< 2x target")
        rc = 1
    if args.baseline:
        try:
            problems = check_baseline(report, args.baseline)
        except BaselineError as exc:
            print(f"FAIL: {exc}")
            return 1
        for p in problems:
            print(f"FAIL: {p}")
        if problems:
            rc = 1
    return rc


# ---------------------------------------------------------------------------
# pytest entry point (collected only when explicitly requested)
# ---------------------------------------------------------------------------

def test_sim_core_quick():
    """Smoke: quick mix, both cores bit-identical, pooled not slower."""
    report = run_bench(quick=True, repeats=1)
    det = report["determinism"]
    assert det["identical_jsonl"]
    assert det["identical_final_memory"]
    assert det["oracle_divergences"] == 0
    for r in report["results"]:
        assert r["identical_schedule"]
    # Loose wall-clock floor (CI machines are noisy); the committed
    # full-mode run carries the >= 2x evidence.
    assert report["speedup_256"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
