"""Trace analysis: the questions the paper asked of Paraver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace.tracer import StateRecord, Tracer
from repro.util.stats import RunningStats


@dataclass
class TraceProfile:
    """Aggregated time-by-state view of a trace."""

    by_state: Dict[str, RunningStats] = field(default_factory=dict)
    total_time: float = 0.0

    def fraction(self, state: str) -> float:
        stats = self.by_state.get(state)
        if stats is None or self.total_time == 0:
            return 0.0
        return stats.total / self.total_time


def profile(tracer: Tracer) -> TraceProfile:
    """Time spent per state, across all threads."""
    out = TraceProfile()
    for rec in tracer:
        stats = out.by_state.setdefault(rec.state, RunningStats())
        stats.add(rec.duration)
        out.total_time += rec.duration
    return out


def find_outliers(tracer: Tracer, state: str, factor: float = 4.0,
                  p: Optional[float] = None) -> List[StateRecord]:
    """Records of ``state`` lasting more than ``factor`` x the mean —
    the "abnormally large ... access times" detector of section 4.6.

    With ``p`` set (e.g. ``p=99``) the threshold is the ``p``-th
    percentile of the state's durations instead.  A mean-relative
    factor drowns in bimodal traces (cache hits pull the mean far
    below the miss mode, flagging every miss); the percentile form
    flags only the true tail.
    """
    records = tracer.by_state(state)
    if not records:
        return []
    if p is not None:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        durations = sorted(r.duration for r in records)
        rank = (p / 100.0) * (len(durations) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(durations) - 1)
        threshold = (durations[lo]
                     + (durations[hi] - durations[lo]) * (rank - lo))
    else:
        mean = sum(r.duration for r in records) / len(records)
        threshold = factor * mean
    return [r for r in records if r.duration > threshold]


def render_profile(tracer: Tracer) -> str:
    """Human-readable time-by-state table."""
    prof = profile(tracer)
    lines = [f"{'state':>12} {'count':>7} {'total_us':>12} "
             f"{'mean_us':>9} {'max_us':>9} {'share':>6}"]
    for state in sorted(prof.by_state):
        s = prof.by_state[state]
        lines.append(
            f"{state:>12} {s.n:>7} {s.total:>12.1f} {s.mean:>9.2f} "
            f"{s.max:>9.2f} {prof.fraction(state):>6.1%}")
    if tracer.dropped_records:
        lines.append(f"({tracer.dropped_records} record(s) dropped at "
                     f"the max_records={tracer.max_records} cap; "
                     "totals undercount the run's tail)")
    return "\n".join(lines)
