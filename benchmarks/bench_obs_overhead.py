"""The flight recorder's zero-cost-when-off guarantee, quantified.

Observability that perturbs the system it observes is worse than none:
the acceptance bar for the recorder is that a run with recording *off*
(the default — a disabled :class:`~repro.obs.EventLog`) inflates the
simulator's event count by less than 5% over a runtime with no log at
all, and that virtual time is bit-identical in all three modes (no
log, log off, log on).  Emits are pure observations — appends to a
Python list, never simulator events — so the measured inflation is
exactly zero; the wall-clock column shows what the ``if log.enabled``
guards actually cost the simulator.
"""

import time

from repro.network import GM_MARENOSTRUM
from repro.obs import EventLog
from repro.workloads import FieldParams, run_field
from repro.workloads.kv_traffic import TrafficParams, run_kv_traffic

#: Field stressmark sized to a few thousand remote ops.
_PARAMS = dict(machine=GM_MARENOSTRUM, nthreads=16, threads_per_node=4,
               nelems=32 * 1024, ntokens=4, seed=1)


def _run(events):
    t0 = time.perf_counter()
    res = run_field(FieldParams(events=events, **_PARAMS))
    wall = time.perf_counter() - t0
    return res.run, wall


def test_recording_overhead(benchmark):
    def measure():
        base, base_wall = _run(events=None)
        off, off_wall = _run(events=EventLog(enabled=False))
        on_log = EventLog()
        on, on_wall = _run(events=on_log)
        return {
            "base": base, "off": off, "on": on,
            "base_wall": base_wall, "off_wall": off_wall,
            "on_wall": on_wall, "recorded": len(on_log),
        }

    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    base, off, on = r["base"], r["off"], r["on"]
    off_inflation = (off.sim_events - base.sim_events) / base.sim_events
    on_inflation = (on.sim_events - base.sim_events) / base.sim_events
    print()
    print("flight-recorder overhead (field, 16 threads / 4 nodes):")
    print(f"  {'mode':>10} {'sim_events':>11} {'elapsed_us':>12} "
          f"{'wall_s':>8}")
    for name, res, wall in (("no log", base, r["base_wall"]),
                            ("log off", off, r["off_wall"]),
                            ("log on", on, r["on_wall"])):
        print(f"  {name:>10} {res.sim_events:>11d} "
              f"{res.elapsed_us:>12.1f} {wall:>8.3f}")
    print(f"  recording-off event inflation: {off_inflation:.2%} "
          f"(bar: < 5%); recording-on: {on_inflation:.2%}; "
          f"{r['recorded']} events captured when on")
    # The acceptance bar, and the stronger truths behind it.
    assert off_inflation < 0.05
    assert off.sim_events == base.sim_events
    assert on.sim_events == base.sim_events
    assert off.elapsed_us == base.elapsed_us == on.elapsed_us
    assert r["recorded"] > 0


def test_kv_traffic_obs_overhead(benchmark):
    """Real-path KV leg: the runtime's flight recorder plus the
    streaming SLO monitor on must leave the traffic run bit-identical
    (events, virtual time, histograms, counts)."""
    p_off = TrafficParams(requests=5000)
    p_on = TrafficParams(requests=5000, slo_target_us=30.0,
                         slo_window_us=500.0)

    def measure():
        t0 = time.perf_counter()
        off = run_kv_traffic(p_off)
        off_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        on = run_kv_traffic(p_on, trace=True)
        on_wall = time.perf_counter() - t0
        return {"off": off, "on": on, "off_wall": off_wall,
                "on_wall": on_wall,
                "recorded": len(on.extra["events"])}

    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    off, on = r["off"], r["on"]
    inflation = (on.events - off.events) / off.events
    print()
    print("kv traffic obs overhead (5000 requests, 32 clients / 8 "
          "nodes, recorder + SLO monitor on):")
    print(f"  {'mode':>10} {'sim_events':>11} {'now_us':>12} "
          f"{'wall_s':>8}")
    for name, res, wall in (("obs off", off, r["off_wall"]),
                            ("obs on", on, r["on_wall"])):
        print(f"  {name:>10} {res.events:>11d} "
              f"{res.now:>12.1f} {wall:>8.3f}")
    nwin = len(on.extra["slo"]["windows"])
    print(f"  event inflation: {inflation:.2%} (bar: < 5%); "
          f"{r['recorded']} events + {nwin} SLO window(s) when on")
    assert inflation < 0.05
    assert on.events == off.events
    assert on.now == off.now
    assert (on.hist == off.hist).all()
    assert (on.requests, on.hits, on.misses) \
        == (off.requests, off.hits, off.misses)
    assert r["recorded"] > 0 and nwin > 0
    assert "slo" not in off.extra and "events" not in off.extra
