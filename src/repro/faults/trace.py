"""Time-evolving per-link degradation traces.

Where a :class:`~repro.faults.plan.FaultPlan` states *static* per-link
probabilities, a :class:`LinkTrace` describes how a link's health
*evolves*: each ``(src, dst)`` link carries piecewise segments of loss
probability, corruption probability and latency inflation, optionally
linearly interpolated inside a segment.  Traces are JSON
round-trippable like plans (a ``"kind": "link-trace"`` marker lets
``resolve_profile``/``resolve_trace`` tell the two documents apart)
and carry their own seed.

The runtime's :class:`~repro.faults.injector.FaultInjector` consumes a
trace, drawing each message's fate sequentially from its seeded RNG
(deterministic in simulator order, like every static-plan draw).

Seeded generators build the linkguardian-style scenario shapes:
``flap`` (a link oscillating up/down), ``burst`` (short high-loss
storms), ``degrade`` (slow linear rot of loss + latency), and ``gray``
(low-grade silent corruption that never trips a hard failure).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Tuple

from repro.faults.plan import ANY_NODE
from repro.util.rng import seeded_rng

#: Document marker distinguishing trace JSON from fault-plan JSON.
TRACE_KIND = "link-trace"


@dataclass(frozen=True)
class TraceSegment:
    """One time slice of a link's condition.

    ``loss``/``corrupt`` are per-message probabilities (a corrupt frame
    is detected and discarded by the receiver — it behaves like a loss
    but is accounted separately); ``delay_us`` is extra one-way wire
    latency.  The ``*_end`` fields, when set, linearly interpolate the
    value across the segment (slow-degradation shapes); ``None`` keeps
    it constant.
    """

    t_start: float
    t_end: float
    loss: float = 0.0
    corrupt: float = 0.0
    delay_us: float = 0.0
    loss_end: float | None = None
    corrupt_end: float | None = None
    delay_end_us: float | None = None

    def __post_init__(self) -> None:
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"bad segment window [{self.t_start}, {self.t_end})")
        for name in ("loss", "corrupt", "loss_end", "corrupt_end"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        for name in ("delay_us", "delay_end_us"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ValueError(f"{name}={v} must be >= 0")

    def _lerp(self, a: float, b: float | None, t: float) -> float:
        if b is None or self.t_end == math.inf:
            return a
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        return a + (b - a) * min(max(frac, 0.0), 1.0)

    def at(self, t: float) -> Tuple[float, float, float]:
        """``(loss, corrupt, delay_us)`` at instant ``t`` (must lie in
        the segment's window)."""
        return (self._lerp(self.loss, self.loss_end, t),
                self._lerp(self.corrupt, self.corrupt_end, t),
                self._lerp(self.delay_us, self.delay_end_us, t))

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class LinkRule:
    """The degradation segments of one (possibly wildcarded) link."""

    src: int = ANY_NODE
    dst: int = ANY_NODE
    segments: Tuple[TraceSegment, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))

    def matches(self, src: int, dst: int) -> bool:
        return ((self.src == ANY_NODE or self.src == src)
                and (self.dst == ANY_NODE or self.dst == dst))

    def at(self, t: float) -> Tuple[float, float, float]:
        """Combined condition of this rule at ``t`` (overlapping
        segments compose: losses combine independently, delays add)."""
        loss = corrupt = 0.0
        delay = 0.0
        for seg in self.segments:
            if seg.active(t):
                sl, sc, sd = seg.at(t)
                loss = 1.0 - (1.0 - loss) * (1.0 - sl)
                corrupt = 1.0 - (1.0 - corrupt) * (1.0 - sc)
                delay += sd
        return loss, corrupt, delay


@dataclass(frozen=True)
class LinkTrace:
    """A seed plus per-link degradation rules.

    Empty trace == healthy fabric: nothing is installed and runs are
    bit-identical to a build without the trace plane (the same
    zero-cost-when-off bar :class:`~repro.faults.plan.FaultPlan`
    holds).
    """

    seed: int = 0
    links: Tuple[LinkRule, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.links, tuple):
            object.__setattr__(self, "links", tuple(self.links))

    @property
    def empty(self) -> bool:
        return not self.links

    def with_seed(self, seed: int) -> "LinkTrace":
        return replace(self, seed=seed)

    def at(self, src: int, dst: int, t: float) -> Tuple[float, float,
                                                        float]:
        """``(loss, corrupt, delay_us)`` for a message on link
        ``src -> dst`` at instant ``t``.  Multiple matching rules
        compose the same way overlapping segments do."""
        loss = corrupt = 0.0
        delay = 0.0
        for rule in self.links:
            if rule.matches(src, dst):
                rl, rc, rd = rule.at(t)
                loss = 1.0 - (1.0 - loss) * (1.0 - rl)
                corrupt = 1.0 - (1.0 - corrupt) * (1.0 - rc)
                delay += rd
        return loss, corrupt, delay

    def drop_prob(self, src: int, dst: int, t: float) -> float:
        """Probability the message does not arrive intact (loss or
        detected corruption)."""
        loss, corrupt, _ = self.at(src, dst, t)
        return 1.0 - (1.0 - loss) * (1.0 - corrupt)

    def affected_links(self, nnodes: int) -> Tuple[Tuple[int, int], ...]:
        """Concrete (src, dst) pairs the trace can bite, wildcards
        expanded against an ``nnodes``-node cluster."""
        pairs = []
        for rule in self.links:
            srcs = (range(nnodes) if rule.src == ANY_NODE
                    else (rule.src,))
            dsts = (range(nnodes) if rule.dst == ANY_NODE
                    else (rule.dst,))
            for s in srcs:
                for d in dsts:
                    if s != d and (s, d) not in pairs:
                        pairs.append((s, d))
        return tuple(pairs)

    # -- JSON round trip ------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        doc = {"kind": TRACE_KIND, "seed": self.seed, "name": self.name,
               "links": [_rule_dict(r) for r in self.links]}
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LinkTrace":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("link trace JSON must be an object")
        if doc.get("kind") != TRACE_KIND:
            raise ValueError(
                f"not a link trace (kind={doc.get('kind')!r}; "
                f"expected {TRACE_KIND!r}) — static fault plans go "
                f"through --fault-profile, not --link-trace")
        unknown = set(doc) - {"kind", "seed", "name", "links"}
        if unknown:
            raise ValueError(
                f"unknown link-trace keys: {sorted(unknown)}")
        links = []
        for r in doc.get("links", ()):
            segs = tuple(TraceSegment(**_coerce_inf(s))
                         for s in r.get("segments", ()))
            links.append(LinkRule(src=int(r.get("src", ANY_NODE)),
                                  dst=int(r.get("dst", ANY_NODE)),
                                  segments=segs))
        return cls(seed=int(doc.get("seed", 0)), links=tuple(links),
                   name=str(doc.get("name", "")))


def sniff_trace_json(text: str) -> bool:
    """True when ``text`` parses as JSON carrying the link-trace
    marker (used by profile resolution to route documents)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return isinstance(doc, dict) and doc.get("kind") == TRACE_KIND


def _rule_dict(rule: LinkRule) -> dict:
    d = {"src": rule.src, "dst": rule.dst,
         "segments": [asdict(s) for s in rule.segments]}
    for s in d["segments"]:
        for k, v in list(s.items()):
            if v == math.inf:
                s[k] = "inf"
            elif v is None:
                del s[k]
    return d


def _coerce_inf(d: dict) -> dict:
    return {k: (math.inf if v == "inf" else v) for k, v in d.items()}


# ---------------------------------------------------------------------------
# Seeded scenario generators (linkguardian-style shapes)
# ---------------------------------------------------------------------------

def _pick_link(rng, nnodes: int) -> Tuple[int, int]:
    src = int(rng.integers(nnodes))
    dst = int(rng.integers(nnodes - 1))
    if dst >= src:
        dst += 1
    return src, dst


def flap_trace(nnodes: int, seed: int = 0, *, horizon_us: float = 20000.0,
               period_us: float = 2000.0, down_us: float = 800.0,
               down_loss: float = 0.9) -> LinkTrace:
    """A flapping link: up, then heavy loss for ``down_us`` of every
    ``period_us``, repeating until ``horizon_us``.  The shape repair
    policies are judged against — ``disable_and_repair`` should route
    around every down phase it has seen once."""
    rng = seeded_rng(seed, 0x71A9)
    src, dst = _pick_link(rng, nnodes)
    phase = float(rng.uniform(0.2, 0.8)) * period_us
    segs = []
    t = phase
    while t < horizon_us:
        segs.append(TraceSegment(t_start=t,
                                 t_end=min(t + down_us, horizon_us),
                                 loss=down_loss))
        t += period_us
    return LinkTrace(seed=seed, name="flap",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=tuple(segs)),))


def burst_trace(nnodes: int, seed: int = 0, *,
                horizon_us: float = 20000.0, bursts: int = 4,
                burst_us: float = 600.0,
                burst_loss: float = 0.6) -> LinkTrace:
    """Short loss storms at random instants on one link (congestion
    collapse / transient optics trouble)."""
    rng = seeded_rng(seed, 0xB0B5)
    src, dst = _pick_link(rng, nnodes)
    starts = sorted(float(rng.uniform(0.05, 0.9)) * horizon_us
                    for _ in range(bursts))
    segs = []
    last_end = 0.0
    for s in starts:
        s = max(s, last_end + 1.0)
        if s >= horizon_us:
            break
        end = min(s + burst_us, horizon_us)
        segs.append(TraceSegment(t_start=s, t_end=end, loss=burst_loss))
        last_end = end
    return LinkTrace(seed=seed, name="burst",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=tuple(segs)),))


def degrade_trace(nnodes: int, seed: int = 0, *,
                  horizon_us: float = 20000.0, final_loss: float = 0.45,
                  final_delay_us: float = 30.0) -> LinkTrace:
    """Slow rot: loss and latency inflation ramp linearly from healthy
    to ``final_*`` across the horizon (aging optics, creeping FEC
    retries) — the shape that exercises segment interpolation."""
    rng = seeded_rng(seed, 0xDE64)
    src, dst = _pick_link(rng, nnodes)
    onset = float(rng.uniform(0.1, 0.3)) * horizon_us
    seg = TraceSegment(t_start=onset, t_end=horizon_us,
                       loss=0.0, loss_end=final_loss,
                       delay_us=0.0, delay_end_us=final_delay_us)
    return LinkTrace(seed=seed, name="degrade",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=(seg,)),))


def gray_trace(nnodes: int, seed: int = 0, *,
               horizon_us: float = 20000.0, corrupt: float = 0.12,
               delay_us: float = 6.0) -> LinkTrace:
    """Gray failure: a link that silently corrupts a steady small
    fraction of frames (receiver CRC drops them) with mild latency
    inflation — never bad enough to look hard-down, always bad enough
    to hurt the tail."""
    rng = seeded_rng(seed, 0x64A1)
    src, dst = _pick_link(rng, nnodes)
    onset = float(rng.uniform(0.05, 0.2)) * horizon_us
    seg = TraceSegment(t_start=onset, t_end=horizon_us,
                       corrupt=corrupt, delay_us=delay_us)
    return LinkTrace(seed=seed, name="gray",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=(seg,)),))


#: Registry of scenario-shape builders: name -> f(nnodes, seed, **kw).
TRACE_SHAPES: Dict[str, Callable[..., LinkTrace]] = {
    "flap": flap_trace,
    "burst": burst_trace,
    "degrade": degrade_trace,
    "gray": gray_trace,
}


def make_trace(shape: str, nnodes: int, seed: int = 0,
               **kwargs) -> LinkTrace:
    """Build a named scenario shape for an ``nnodes``-node cluster."""
    try:
        builder = TRACE_SHAPES[shape]
    except KeyError:
        names = ", ".join(sorted(TRACE_SHAPES))
        raise ValueError(f"unknown trace shape {shape!r} "
                         f"(expected one of: {names})") from None
    return builder(nnodes, seed, **kwargs)
