"""The benchmark's references, output checks and metric definitions."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import run as bench
from layers import traced
from spantrace import SpanTracer
from workloads import (GET, PUT, WORKLOADS, KVParams, Rep, _check_kv,
                       _KVRecord, encode, field_reference, pointer_reference,
                       run_kv)

from repro.network import GM_MARENOSTRUM
from repro.workloads.dis.field import FieldParams, run_field
from repro.workloads.dis.pointer import PointerParams, run_pointer

SMALL_KV = KVParams(nthreads=8, threads_per_node=2, nkeys=64, nbuckets=32,
                    nlocks=4, requests_per_client=40, mean_gap_us=20.0)


@pytest.mark.parametrize("seed", [0, 5])
def test_pointer_reference_matches_the_stressmark(seed):
    p = PointerParams(machine=GM_MARENOSTRUM, nthreads=32, nelems=1024,
                      hops=8, seed=seed)
    expected, ops = pointer_reference(p)
    assert run_pointer(p).check == expected
    assert ops == 32 * 8


@pytest.mark.parametrize("seed", [0, 5])
def test_field_reference_matches_the_stressmark(seed):
    p = FieldParams(machine=GM_MARENOSTRUM, nthreads=32, nelems=2048,
                    ntokens=3, alphabet=4, seed=seed)
    expected, ops = field_reference(p)
    assert run_field(p).check == expected
    assert sum(expected) > 0
    assert 3 * 32 * 5 <= ops <= 3 * 32 * 6


def test_small_kv_run_is_correct_repeatable_and_trace_invisible():
    first = run_kv(SMALL_KV)
    assert first.errors == [] and first.failed == 0
    assert run_kv(SMALL_KV).fingerprint == first.fingerprint
    with traced(SpanTracer()):
        assert run_kv(SMALL_KV).fingerprint == first.fingerprint
    assert len(first.latency_us) == SMALL_KV.requests
    assert (first.lateness_us >= 0).all()
    assert first.rt.metrics.kv_rpc_ops > 0
    assert first.rt.metrics.kv_onesided_ops > 0


def test_small_lossy_kv_run_survives_the_flapping_link():
    rep = run_kv(replace(SMALL_KV, lossy=True, requests_per_client=200))
    assert rep.errors == [] and rep.failed == 0
    assert rep.rt.metrics.timeouts > 0 and rep.rt.metrics.policy_actions > 0


def _record(kind, key, value=None, version=0, issue=0.0, done=1.0):
    return _KVRecord(due=issue, issue=issue, done=done, kind=kind,
                     keys=(key,), values=None if value is None else [value],
                     version=version, ok=True)


def test_kv_check_flags_wrong_stale_and_future_values():
    p = KVParams(nkeys=2)
    snapshot = {0: encode(0, 1), 1: encode(1, 0)}
    good = [_record(PUT, 0, version=1, issue=1.0, done=2.0),
            _record(GET, 0, encode(0, 1), issue=1.5, done=3.0),
            _record(GET, 0, encode(0, 0), issue=1.5, done=3.0),
            _record(GET, 0, encode(0, 1), issue=2.5, done=3.0),
            _record(GET, 1, encode(1, 0))]
    assert _check_kv(p, good, snapshot) == (0, [])
    wrong_key = good + [_record(GET, 1, encode(0, 1))]
    assert _check_kv(p, wrong_key, snapshot)[0] == 1
    future = good + [_record(GET, 0, encode(0, 1), issue=0.0, done=0.5)]
    assert _check_kv(p, future, snapshot)[0] == 1
    # The preload read after a PUT to the key completed.
    stale = good + [_record(GET, 0, encode(0, 0), issue=2.5, done=3.0)]
    assert _check_kv(p, stale, snapshot)[0] == 1
    failed, errors = _check_kv(p, good, {0: encode(0, 0), 1: encode(1, 0)})
    assert failed == 0 and "final store image" in errors[0]


def test_kv_check_flags_a_superseded_write():
    p = KVParams(nkeys=1)
    snapshot = {0: encode(0, 2)}
    writes = [_record(PUT, 0, version=1, issue=1.0, done=2.0),
              _record(PUT, 0, version=2, issue=3.0, done=4.0)]
    overlapping = writes + [_record(GET, 0, encode(0, 1), issue=2.5, done=5.0),
                            _record(GET, 0, encode(0, 2), issue=2.5, done=5.0)]
    assert _check_kv(p, overlapping, snapshot) == (0, [])
    superseded = writes + [_record(GET, 0, encode(0, 1), issue=4.5, done=5.0)]
    assert _check_kv(p, superseded, snapshot)[0] == 1


def test_percentile_needs_ten_samples_beyond_it():
    assert bench.percentile_with_tail(np.arange(9_999.0), 0.999) is None
    values = np.arange(10_000.0)[::-1]
    assert bench.percentile_with_tail(values, 0.999) == 9_989.0
    assert bench.percentile_with_tail(values, 0.5) == 4_999.0


def test_host_metrics_are_scaled_to_the_nominal_host():
    rep = Rep(setup_s=0.2, run_s=2.0, rt=None, virtual_us=5.0,
              latency_us=np.arange(20_000.0), lateness_us=np.zeros(0),
              failed=0, errors=[], fingerprint=())
    out = bench.end_to_end([(1000, rep)], [rep], [0.2, 0.3, 0.2], scale=0.5)
    assert out["ops_per_s"] == 1000.0 and out["setup_s"] == 0.1


def test_benchmark_json_matches_the_reported_metrics():
    path = os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        bench._layer_metrics()
    assert spec["paths"] == ["perfbench"]
