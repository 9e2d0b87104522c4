"""Lossy-fabric traffic on the runtime: reproducibility, policy effects,
plumbing.

Losses, retransmits and repair actions are the runtime's own (fault
injector, transport reliability layer, ``KVStore._path``), so the same
trace + seed must reproduce the same histograms, noisy links and
policy decisions run after run.
"""

import numpy as np
import pytest

from repro.faults import LinkRule, LinkTrace, TraceSegment
from repro.workloads.kv_traffic import (TrafficParams, run_kv_traffic,
                                        scenario_trace)

#: A fabric that is definitely sick from t=0 on two specific links —
#: no dependence on generator phase, so even short runs see drops.
SICK = LinkTrace(seed=5, name="sick", links=(
    LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
    LinkRule(src=1, dst=0, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
))


def _params(**kw):
    kw.setdefault("nnodes", 4)
    kw.setdefault("nclients", 16)
    kw.setdefault("requests", 3_200)
    kw.setdefault("seed", 11)
    return TrafficParams(**kw)


def _fingerprint(res):
    fp = {
        "hist": res.hist.tobytes(),
        "hit": res.hist_hit.tobytes(),
        "miss": res.hist_miss.tobytes(),
        "counts": (res.requests, res.failures, res.hits, res.misses,
                   res.now, res.events),
    }
    if "noisy_links" in res.extra:
        fp["links"] = res.extra["noisy_links"]
    if "policy" in res.extra:
        fp["policy_digest"] = res.extra["policy"]["digest"]
        fp["decisions"] = res.extra["policy"]["decisions"]
    return fp


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["", "do_nothing",
                                    "disable_and_repair"])
def test_traced_run_is_reproducible(policy):
    p = _params(link_trace=SICK.to_json(), repair_policy=policy)
    ref = _fingerprint(run_kv_traffic(p))
    assert _fingerprint(run_kv_traffic(p)) == ref
    # sickness actually bit: the sick link is the noisiest
    top = ref["links"][0]
    assert (top["src"], top["dst"]) in ((0, 1), (1, 0))
    assert top["timeouts"] > 0


def test_zero_trace_is_bit_identical_to_no_trace():
    # "" and an empty LinkTrace both leave the fabric healthy
    base = run_kv_traffic(_params())
    empty = run_kv_traffic(_params(link_trace=LinkTrace().to_json()))
    assert np.array_equal(base.hist, empty.hist)
    assert base.events == empty.events
    assert "noisy_links" not in base.extra
    assert "policy" not in empty.extra


# ---------------------------------------------------------------------------
# Policy effects
# ---------------------------------------------------------------------------

def test_disable_and_repair_beats_do_nothing_under_flap():
    # the acceptance-gate comparison at test scale: the flapping links'
    # down phases dominate the do_nothing tail; detouring around them
    # must win at p99
    runs = {}
    for policy in ("do_nothing", "disable_and_repair"):
        p = TrafficParams(requests=6_400, seed=9)
        p.link_trace = scenario_trace("flap", p, 7).to_json()
        p.repair_policy = policy
        runs[policy] = run_kv_traffic(p)
    dn = runs["do_nothing"].quantiles()["p99_us"]
    dr = runs["disable_and_repair"].quantiles()["p99_us"]
    assert dr < dn
    assert runs["disable_and_repair"].extra["policy"]["decisions"]
    # the control arm never acts
    assert runs["do_nothing"].extra["policy"]["decisions"] == []


def test_exhausted_requests_are_counted_not_hung():
    # a link that never delivers: every request crossing it exhausts
    # its retry budget and lands in the failure count, and the run
    # still terminates with every request accounted for
    dead = LinkTrace(seed=1, name="dead", links=(
        LinkRule(src=0, dst=1, segments=(
            TraceSegment(t_start=0.0, t_end=1e9, loss=1.0),)),))
    p = _params(requests=800, link_trace=dead.to_json())
    res = run_kv_traffic(p)
    assert res.failures > 0
    assert res.requests + res.failures == 800


def test_policy_without_trace_is_rejected():
    with pytest.raises(ValueError, match="needs a link trace"):
        run_kv_traffic(_params(repair_policy="do_nothing"))


def test_unknown_policy_is_rejected():
    p = _params(link_trace=SICK.to_json(), repair_policy="percussive")
    with pytest.raises(ValueError, match="unknown repair policy"):
        run_kv_traffic(p)


# ---------------------------------------------------------------------------
# Noisy links + decision plumbing
# ---------------------------------------------------------------------------

def test_noisy_links_and_decisions_are_reported():
    p = _params(link_trace=SICK.to_json(),
                repair_policy="retransmit_tuning", slo_target_us=30.0)
    res = run_kv_traffic(p)
    links = {(r["src"], r["dst"]): r for r in res.extra["noisy_links"]}
    assert links[(0, 1)]["retries"] > 0
    pol = res.extra["policy"]
    assert pol["name"] == "retransmit_tuning"
    assert pol["decisions"], "sick links never tripped the policy"
    ts = [d["t_us"] for d in pol["decisions"]]
    assert ts == sorted(ts)
    # policy actions surface in the SLO windows
    assert res.extra["slo"]["summary"]["policy_actions"] \
        == len(pol["decisions"])
