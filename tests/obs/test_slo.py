"""SLO monitor: window bucketing, burn-rate math and the threshold
anomaly detectors."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.slo import (
    SLO_HIST_BINS,
    SLOMonitor,
    detect_anomalies,
    hist_quantile,
    render_slo,
    slo_summary,
    window_stats,
)


def test_monitor_validation():
    with pytest.raises(ValueError):
        SLOMonitor(0.0)
    with pytest.raises(ValueError):
        SLOMonitor(10.0, window_us=0.0)
    with pytest.raises(ValueError):
        SLOMonitor(10.0, slo_quantile=1.0)


def test_window_bucketing_and_counters():
    mon = SLOMonitor(target_us=10.0, window_us=100.0)
    mon.observe(5.0, 4.0, hit=True)
    mon.observe(99.9, 20.0, inflight=7)          # violation
    mon.observe(100.0, 6.0, retried=True)        # next window
    assert sorted(mon.windows) == [0, 1]
    w0, w1 = mon.windows[0], mon.windows[1]
    assert (w0.count, w0.violations, w0.hits, w0.max_inflight) \
        == (2, 1, 1, 7)
    assert (w1.count, w1.violations, w1.retries) == (1, 0, 1)
    assert mon.digest.count == 3


def test_burn_rate_semantics():
    # At p99, budget is 1%: one violation in 100 burns exactly 1.0.
    mon = SLOMonitor(target_us=10.0, window_us=1e9, slo_quantile=0.99)
    for i in range(99):
        mon.observe(float(i), 1.0)
    mon.observe(99.0, 100.0)
    (w,) = mon.sorted_windows()
    assert mon.burn_rate(w) == pytest.approx(1.0)
    # all-violating window burns 1/budget = 100x
    mon2 = SLOMonitor(target_us=0.5, window_us=1e9)
    mon2.observe(0.0, 1.0)
    assert mon2.burn_rate(mon2.sorted_windows()[0]) \
        == pytest.approx(100.0)


def test_window_quantiles_bound_the_samples():
    mon = SLOMonitor(target_us=50.0, window_us=1e9)
    vals = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    for i, v in enumerate(vals):
        mon.observe(float(i), v)
    (w,) = mon.sorted_windows()
    # log-bin upper edges: quantile >= true value, within one bin
    assert w.p50() >= 2.0
    assert w.p99() >= 32.0
    assert w.p99() <= 32.0 * 1.07   # bin width ~6.5% at 256 bins
    assert hist_quantile([0] * SLO_HIST_BINS, 0.99) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.2, 1e4), min_size=1, max_size=200))
def test_summary_burn_rate_matches_violation_fraction(lats):
    target = 25.0
    mon = SLOMonitor(target_us=target, window_us=100.0)
    for i, lat in enumerate(lats):
        mon.observe(float(i), lat)
    windows = mon.export()
    s = slo_summary(windows, target_us=target, window_us=100.0)
    frac = sum(1 for v in lats if v > target) / len(lats)
    assert s["count"] == len(lats)
    assert s["violation_frac"] == pytest.approx(frac)
    assert s["burn_rate"] == pytest.approx(frac / 0.01)
    assert 0.0 <= s["hit_rate"] <= 1.0
    # per-window violations sum to the total
    stats = [window_stats(w, target_us=target, window_us=100.0)
             for w in windows]
    assert sum(x["violations"] for x in stats) == s["violations"]
    if s["violations"]:
        assert s["worst_window"]["burn_rate"] \
            == pytest.approx(max(x["burn_rate"] for x in stats))


def _win(index, count, *, violations=0, hits=0, retries=0,
         max_inflight=0, lat_bin=None, lat_n=None):
    hist = [0] * SLO_HIST_BINS
    if lat_bin is not None:
        hist[lat_bin] = lat_n if lat_n is not None else count
    return {"index": index, "count": count, "violations": violations,
            "hits": hits, "retries": retries,
            "max_inflight": max_inflight, "hist": hist}


def test_detect_retry_storm():
    wins = [_win(0, 100, retries=2, lat_bin=10),
            _win(1, 100, retries=20, lat_bin=10)]
    flags = detect_anomalies(wins, target_us=10.0, window_us=100.0)
    storms = [f for f in flags if f["kind"] == "retry_storm"]
    assert [f["index"] for f in storms] == [1]
    assert storms[0]["value"] == pytest.approx(0.2)
    assert storms[0]["t0_us"] == 100.0


def test_detect_backlog_spike():
    wins = [_win(i, 50, max_inflight=10, lat_bin=10) for i in range(5)]
    wins.append(_win(5, 50, max_inflight=90, lat_bin=10))
    flags = detect_anomalies(wins, target_us=10.0, window_us=100.0)
    spikes = [f for f in flags if f["kind"] == "backlog_spike"]
    assert [f["index"] for f in spikes] == [5]
    assert spikes[0]["value"] == 90.0


def test_detect_p99_regression_is_causal():
    # 4 calm windows around bin 50, then a tail blowout at bin 200.
    wins = [_win(i, 100, lat_bin=50) for i in range(4)]
    wins.append(_win(4, 100, lat_bin=200))
    flags = detect_anomalies(wins, target_us=1e6, window_us=100.0)
    regs = [f for f in flags if f["kind"] == "p99_regression"]
    assert [f["index"] for f in regs] == [4]
    # the *first* windows can never be flagged (no warmup history)
    early = detect_anomalies(wins[:3], target_us=1e6, window_us=100.0)
    assert not [f for f in early if f["kind"] == "p99_regression"]


def test_detectors_quiet_on_steady_traffic():
    wins = [_win(i, 100, hits=40, max_inflight=12, lat_bin=40)
            for i in range(8)]
    assert detect_anomalies(wins, target_us=1e6, window_us=100.0) == []


def test_render_slo_mentions_flags_and_truncation():
    wins = [_win(i, 10, lat_bin=40) for i in range(20)]
    s = slo_summary(wins, target_us=10.0, window_us=100.0)
    flags = [{"kind": "retry_storm", "index": 3, "t0_us": 300.0,
              "t1_us": 400.0, "value": 0.5, "threshold": 0.05}]
    text = render_slo(wins, s, flags, max_rows=5)
    assert "retry_storm" in text
    assert "15 more window(s)" in text
    quiet = render_slo(wins[:2], s, [])
    assert "no anomaly flags" in quiet


def test_policy_actions_ride_windows_and_summary():
    mon = SLOMonitor(target_us=10.0, window_us=100.0)
    mon.observe(5.0, 4.0)
    mon.observe_policy_action(50.0)
    mon.observe_policy_action(150.0)   # next window, no completions
    windows = mon.export()
    by_idx = {w["index"]: w for w in windows}
    assert by_idx[0]["policy_actions"] == 1
    assert by_idx[1]["policy_actions"] == 1
    s = slo_summary(windows, target_us=10.0, window_us=100.0)
    assert s["policy_actions"] == 2


def test_detect_policy_flap():
    calm = _win(0, 50, lat_bin=10)
    busy = _win(1, 50, lat_bin=10)
    busy["policy_actions"] = 4
    mild = _win(2, 50, lat_bin=10)
    mild["policy_actions"] = 3         # below the default threshold
    flags = detect_anomalies([calm, busy, mild], target_us=10.0,
                             window_us=100.0)
    flaps = [f for f in flags if f["kind"] == "policy_flap"]
    assert [f["index"] for f in flaps] == [1]
    assert flaps[0]["value"] == 4.0


# ---------------------------------------------------------------------------
# The detectors on real-path KV traffic
# ---------------------------------------------------------------------------

#: SLO windows of 2 ms: ~900 completions each at the unsaturated gap,
#: so a window p99 is a tail estimate rather than one unlucky request.
_KV_WINDOW_US = 2000.0


@functools.lru_cache(maxsize=None)
def _kv_slo(gap_us: float) -> dict:
    from repro.workloads.kv_traffic import TrafficParams, run_kv_traffic
    res = run_kv_traffic(TrafficParams(
        requests=16_000, mean_gap_us=gap_us, seed=1,
        slo_target_us=100.0, slo_window_us=_KV_WINDOW_US))
    return res.extra["slo"]


def test_unsaturated_kv_traffic_trips_no_load_detector():
    kinds = {a["kind"] for a in _kv_slo(70.0)["anomalies"]}
    assert not kinds & {"backlog_spike", "p99_regression"}


def test_saturating_kv_traffic_burns_the_slo():
    calm, busy = _kv_slo(70.0), _kv_slo(8.75)
    assert busy["summary"]["burn_rate"] > 10 * calm["summary"]["burn_rate"]
    assert (max(w["max_inflight"] for w in busy["windows"])
            > 10 * max(w["max_inflight"] for w in calm["windows"]))


@pytest.mark.xfail(strict=True, reason=(
    "steady overload grows the backlog and the tail linearly until the "
    "arrivals stop, so the peak stays near 2x the median window peak "
    "(backlog_spike needs 3x) and each window's p99 near 2x the median "
    "of the windows before it (p99_regression needs more); both flag "
    "a step in load, which one constant-gap run does not contain"))
def test_saturating_kv_traffic_trips_backlog_and_p99_detectors():
    kinds = {a["kind"] for a in _kv_slo(8.75)["anomalies"]}
    assert {"backlog_spike", "p99_regression"} <= kinds
