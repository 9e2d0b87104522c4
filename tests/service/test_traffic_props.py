"""Properties of the traffic generator and harness.

Hypothesis-driven checks that the synthetic load is what it claims —
Zipfian keys with the configured rank-frequency slope, Poisson
arrivals with the configured inter-arrival mean — and that the
real-path harness is reproducible and responds to offered load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import seeded_rng
from repro.workloads.kv_traffic import (
    HIST_BINS,
    PoissonArrivals,
    TrafficParams,
    ZipfianKeys,
    hist_edges,
    hist_quantile,
    run_kv_traffic,
)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([0.7, 0.9, 1.1, 1.3]))
def test_zipf_rank_frequency_slope(seed, s):
    """log(freq) vs log(rank) over the head of the distribution must
    regress to slope -s (rank order is key order by construction)."""
    n = 200_000
    keys = ZipfianKeys(1024, s).draw(np.random.default_rng(seed), n)
    counts = np.bincount(keys, minlength=1024)
    head = 32
    freq = counts[:head] / n
    assert freq.min() > 0
    slope = np.polyfit(np.log(np.arange(1, head + 1)),
                       np.log(freq), 1)[0]
    assert abs(slope + s) < 0.1, f"slope {slope:.3f} for s={s}"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       mean=st.floats(0.5, 50.0))
def test_poisson_interarrival_mean(seed, mean):
    n = 100_000
    proc = PoissonArrivals(mean)
    gaps = proc.gaps(np.random.default_rng(seed), n)
    assert (gaps > 0).all()
    assert abs(gaps.mean() - mean) / mean < 0.05
    sched = proc.schedule(np.random.default_rng(seed), n)
    assert np.allclose(np.diff(sched), gaps[1:])


def test_zipf_identical_streams_for_identical_seeds():
    z = ZipfianKeys(512, 0.9)
    a = z.draw(seeded_rng(7, 3), 1000)
    b = z.draw(seeded_rng(7, 3), 1000)
    assert np.array_equal(a, b)


def test_hist_quantile_geometry():
    edges = hist_edges()
    assert len(edges) == HIST_BINS + 1
    assert np.all(np.diff(edges) > 0)
    hist = np.zeros(HIST_BINS, dtype=np.int64)
    hist[10] = 100
    q = hist_quantile(hist, 0.5)
    assert edges[10] < q <= edges[11] or q == edges[11]
    assert hist_quantile(np.zeros(HIST_BINS, dtype=np.int64), 0.5) == 0.0


def _fingerprint(res):
    return (res.hist.tobytes(), res.hist_hit.tobytes(),
            res.hist_miss.tobytes(), res.requests, res.failures,
            res.hits, res.misses, res.puts, res.gets, res.now, res.events)


def test_traffic_run_is_reproducible():
    p = TrafficParams(nnodes=4, nclients=8, nkeys=256, nbuckets=128,
                      requests=2000, seed=3)
    a = run_kv_traffic(p)
    b = run_kv_traffic(p)
    assert a.requests == 2000 and a.failures == 0
    assert a.gets + a.puts == a.requests
    assert _fingerprint(a) == _fingerprint(b)
    assert a.quantiles() == b.quantiles()


def test_hits_come_from_the_runtime_address_cache():
    """Hit/miss is the protocol the runtime resolved: with every home
    fitting in the cache, misses are the few compulsory ones, every hit
    went over RDMA, and hits are faster at the median."""
    p = TrafficParams(nnodes=4, nclients=8, requests=2000, seed=5)
    res = run_kv_traffic(p)
    m = res.extra["run"].metrics
    assert res.hits > 10 * res.misses > 0
    assert res.hits + res.misses < res.requests     # some are local
    assert m.rdma_gets + m.rdma_puts >= res.hits
    q = res.quantiles()
    assert q["hit_p50_us"] < q["miss_p50_us"]


def test_fct_responds_to_offered_load():
    """Same seed, same requests: a saturating gap queues at the home
    nodes, so the tail is far above the unsaturated one's."""
    p99 = {}
    for gap in (70.0, 8.75):
        res = run_kv_traffic(TrafficParams(requests=4000,
                                           mean_gap_us=gap, seed=1))
        p99[gap] = res.quantiles()["p99_us"]
    assert p99[8.75] > 5 * p99[70.0]


def test_params_must_spread_clients_evenly():
    with pytest.raises(ValueError, match="spread evenly"):
        run_kv_traffic(TrafficParams(nnodes=3, nclients=8))
