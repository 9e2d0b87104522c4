"""The Paraver-style time-in-state view (section 4.6), derived from the
flight recorder's ``op_begin``/``op_end`` spans."""

import csv
from collections import Counter
from dataclasses import replace

import pytest

from repro.network import GM_MARENOSTRUM
from repro.obs import EventLog, dump_state_csv, op_spans
from repro.obs.export import STATE_CSV_HEADER, _span_name
from repro.runtime import Runtime, RuntimeConfig
from repro.workloads import FieldParams, PointerParams, run_field, run_pointer


def _states(log):
    """state -> durations of its spans, in end order."""
    out = {}
    for b, e in op_spans(log):
        out.setdefault(_span_name(b, e), []).append(e.t - b.t)
    return out


def test_runtime_integration_records_ops():
    log = EventLog()
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=4, events=log, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        yield from th.compute(3.0)
        if th.id == 0:
            yield from th.get(arr, 40)   # remote: am (first touch)
            yield from th.get(arr, 41)   # remote: rdma (hit)
            yield from th.get(arr, 1)    # local
            yield from th.get(arr, 10)   # shm
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    states = _states(log)
    assert {"compute", "barrier", "get:am", "get:rdma", "get:local",
            "get:shm"} <= set(states)
    # The RDMA get must be faster than the AM get it followed.
    assert states["get:rdma"][0] < states["get:am"][0]


def test_paraver_finding_field_overhang_outliers():
    """Reproduce the paper's trace analysis: uncached Field on GM has
    abnormally large overhang GETs (section 4.6)."""
    log = EventLog()
    params = FieldParams(
        machine=GM_MARENOSTRUM, nthreads=16, threads_per_node=4,
        cache_enabled=False, seed=1, nelems=16 * 1024,
        ntokens=6, events=log)
    run_field(params)
    states = _states(log)
    durations = sorted(states.get("get:am", []) + states.get("get:rdma", []))
    assert durations, "field must do remote gets"
    # Heavy tail: the slowest uncached overhang GET dwarfs the median.
    assert durations[-1] > 4 * durations[len(durations) // 2]


@pytest.mark.parametrize("run, params", [
    (run_pointer, PointerParams(machine=GM_MARENOSTRUM, nthreads=16,
                                seed=1, nelems=1 << 10, hops=12)),
    (run_field, FieldParams(machine=GM_MARENOSTRUM, nthreads=16, seed=1,
                            nelems=1 << 12, ntokens=2)),
], ids=["pointer", "field"])
def test_state_csv_agrees_with_runtime_metrics(run, params, tmp_path):
    log = EventLog()
    metrics = run(replace(params, events=log)).run.metrics
    path = tmp_path / "state.csv"
    n = dump_state_csv(log, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == STATE_CSV_HEADER
    rows = rows[1:]
    # One row per span, in end order, with times that parse back to
    # the recorded floats exactly.
    assert len(rows) == n > 0
    assert [(int(th), st, float(t0), float(t1)) for th, st, t0, t1 in rows] \
        == [(b.thread, _span_name(b, e), b.t, e.t) for b, e in op_spans(log)]
    by_state = Counter(state for _, state, _, _ in rows)
    assert by_state["get:rdma"] == metrics.rdma_gets > 0
    assert by_state["get:am"] == metrics.am_gets > 0
    compute = sum(float(t1) - float(t0)
                  for _, state, t0, t1 in rows if state == "compute")
    assert compute == pytest.approx(metrics.compute_time_us, rel=1e-12)
