"""Link-trace plane: segments, composition, generators, resolution."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (LinkRule, LinkTrace, PROFILES, TraceSegment,
                          make_trace, resolve_profile, resolve_trace,
                          sniff_trace_json)
from repro.faults.trace import TRACE_SHAPES


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

def test_segment_validation():
    with pytest.raises(ValueError):
        TraceSegment(t_start=10.0, t_end=10.0)
    with pytest.raises(ValueError):
        TraceSegment(t_start=-1.0, t_end=5.0)
    with pytest.raises(ValueError):
        TraceSegment(t_start=0.0, t_end=5.0, loss=1.5)
    with pytest.raises(ValueError):
        TraceSegment(t_start=0.0, t_end=5.0, delay_us=-1.0)


def test_segment_constant_and_lerp():
    const = TraceSegment(t_start=0.0, t_end=100.0, loss=0.4)
    assert const.at(0.0) == (0.4, 0.0, 0.0)
    assert const.at(99.0) == (0.4, 0.0, 0.0)
    ramp = TraceSegment(t_start=0.0, t_end=100.0, loss=0.0,
                        loss_end=0.8, delay_us=0.0, delay_end_us=40.0)
    assert ramp.at(0.0) == (0.0, 0.0, 0.0)
    assert ramp.at(50.0) == pytest.approx((0.4, 0.0, 20.0))
    assert ramp.at(100.0) == pytest.approx((0.8, 0.0, 40.0))


def test_overlapping_segments_compose():
    # Losses compose independently, delays add.
    rule = LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=100.0, loss=0.5, delay_us=3.0),
        TraceSegment(t_start=50.0, t_end=150.0, loss=0.5, delay_us=4.0),
    ))
    assert rule.at(25.0) == pytest.approx((0.5, 0.0, 3.0))
    assert rule.at(75.0) == pytest.approx((0.75, 0.0, 7.0))
    assert rule.at(125.0) == pytest.approx((0.5, 0.0, 4.0))
    assert rule.at(200.0) == (0.0, 0.0, 0.0)


def test_drop_prob_combines_loss_and_corruption():
    tr = LinkTrace(links=(LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=100.0, loss=0.5,
                     corrupt=0.5),)),))
    assert tr.drop_prob(0, 1, 10.0) == pytest.approx(0.75)
    assert tr.drop_prob(1, 0, 10.0) == 0.0     # direction matters
    assert tr.drop_prob(0, 1, 200.0) == 0.0    # after the window


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_trace_json_roundtrip():
    tr = make_trace("degrade", 8, 5)
    back = LinkTrace.from_json(tr.to_json())
    assert back == tr
    # inf endpoints survive the trip
    open_ended = LinkTrace(seed=2, links=(LinkRule(segments=(
        TraceSegment(t_start=10.0, t_end=math.inf, loss=0.2),)),))
    assert LinkTrace.from_json(open_ended.to_json()) == open_ended


def test_trace_json_rejects_wrong_kind_and_unknown_keys():
    with pytest.raises(ValueError, match="not a link trace"):
        LinkTrace.from_json('{"seed": 1, "links": []}')
    with pytest.raises(ValueError, match="unknown link-trace keys"):
        LinkTrace.from_json(
            '{"kind": "link-trace", "seed": 1, "bogus": 2}')


def test_sniff_trace_json():
    assert sniff_trace_json(LinkTrace().to_json())
    assert not sniff_trace_json(PROFILES["drop"].to_json())
    assert not sniff_trace_json("not json at all")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
def test_generators_bite_inside_the_horizon(shape):
    tr = make_trace(shape, 8, seed=3, horizon_us=10_000.0)
    assert tr.name == shape
    links = tr.affected_links(8)
    assert links, "generator produced no affected link"
    (src, dst), = links
    assert 0 <= src < 8 and 0 <= dst < 8 and src != dst
    worst = max(tr.drop_prob(src, dst, t)
                for t in range(0, 10_000, 25))
    assert worst > 0.0
    # and nothing outside the horizon
    assert tr.drop_prob(src, dst, 10_001.0) == 0.0


def test_generators_are_seed_deterministic():
    assert make_trace("flap", 8, 7) == make_trace("flap", 8, 7)
    assert make_trace("flap", 8, 7) != make_trace("flap", 8, 8)


def test_make_trace_unknown_shape():
    with pytest.raises(ValueError, match="unknown trace shape"):
        make_trace("meteor", 8, 0)


# ---------------------------------------------------------------------------
# Resolution + mixing errors (satellite: point users at the right flag)
# ---------------------------------------------------------------------------

def test_resolve_trace_by_shape_inline_and_file(tmp_path):
    tr = resolve_trace("flap", 8, trace_seed=7)
    assert tr == make_trace("flap", 8, 7)
    inline = resolve_trace(tr.to_json(), 8)
    assert inline == tr
    path = tmp_path / "trace.json"
    path.write_text(tr.to_json(), encoding="utf-8")
    assert resolve_trace(str(path), 8) == tr
    # seed override applies to files too
    assert resolve_trace(str(path), 8, trace_seed=99).seed == 99


def test_resolve_trace_rejects_fault_plan():
    plan_json = PROFILES["drop"].to_json()
    with pytest.raises(ValueError,
                       match="not --link-trace"):
        resolve_trace(plan_json, 8)


def test_resolve_trace_rejects_fault_plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(PROFILES["drop"].to_json(), encoding="utf-8")
    with pytest.raises(ValueError, match="--fault-profile"):
        resolve_trace(str(path), 8)


def test_resolve_trace_unknown_name():
    with pytest.raises(ValueError, match="unknown link trace"):
        resolve_trace("nope", 8)


def test_resolve_profile_rejects_link_trace():
    tr_json = make_trace("gray", 8, 1).to_json()
    with pytest.raises(ValueError, match="--link-trace"):
        resolve_profile(tr_json)


def test_resolve_profile_rejects_link_trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(make_trace("gray", 8, 1).to_json(),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="not a static"):
        resolve_profile(str(path))


# ---------------------------------------------------------------------------
# Interpolation properties
# ---------------------------------------------------------------------------

@given(loss=st.floats(0.0, 1.0), loss_end=st.floats(0.0, 1.0),
       frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_lerp_stays_between_endpoints(loss, loss_end, frac):
    seg = TraceSegment(t_start=0.0, t_end=100.0, loss=loss,
                       loss_end=loss_end)
    got, _, _ = seg.at(frac * 100.0)
    lo, hi = min(loss, loss_end), max(loss, loss_end)
    assert lo - 1e-12 <= got <= hi + 1e-12


@given(t=st.floats(0.0, 20_000.0), seed=st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_trace_condition_is_a_pure_function_of_time(t, seed):
    tr = make_trace("degrade", 8, seed)
    (src, dst), = tr.affected_links(8)
    assert tr.at(src, dst, t) == tr.at(src, dst, t)
    loss, corrupt, delay = tr.at(src, dst, t)
    assert 0.0 <= loss <= 1.0 and 0.0 <= corrupt <= 1.0
    assert delay >= 0.0


def test_json_roundtrip_preserves_conditions():
    tr = make_trace("degrade", 8, 4)
    back = LinkTrace.from_json(tr.to_json())
    (src, dst), = tr.affected_links(8)
    for t in (0.0, 777.7, 5000.0, 19_999.0):
        assert back.at(src, dst, t) == tr.at(src, dst, t)


def test_to_json_is_canonical():
    tr = make_trace("burst", 8, 9)
    assert json.loads(tr.to_json()) == json.loads(
        LinkTrace.from_json(tr.to_json()).to_json())
