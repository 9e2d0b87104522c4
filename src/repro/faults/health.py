"""Per-link health signals: windowed counters + delivery EWMA.

Repair policies must see a history that does not depend on how often
or when they are queried, so health is accumulated like this:

* events land in **fixed-width time windows** (``index = floor(t /
  window_us)``) as commutative counter adds — attempts, timeouts,
  retries, deliveries per (src, dst) link;
* consumers only read **closed** windows (``index < floor(now /
  window_us)``).  A window closes when simulated time passes its end;
  from that point nothing can be recorded into it, because recorders
  stamp events at or after their own process time and the simulator
  processes strictly earlier times first.  Same-timestamp
  interleavings therefore cannot change what a policy reads;
* the **delivery EWMA** is a pure fold over closed windows in index
  order, memoized monotonically — re-evaluating at a later horizon
  continues the fold, never restarts it.

The tracker is plain bookkeeping: it never touches the simulator, so
recording health leaves runs bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Link = Tuple[int, int]

#: Counter slots per window: attempts, timeouts, retries, deliveries.
_ATT, _TMO, _RTY, _DLV = range(4)


class WindowStats:
    """Plain view of one closed window's counters."""

    __slots__ = ("index", "attempts", "timeouts", "retries",
                 "deliveries")

    def __init__(self, index: int, counters: List[int]) -> None:
        self.index = index
        self.attempts = counters[_ATT]
        self.timeouts = counters[_TMO]
        self.retries = counters[_RTY]
        self.deliveries = counters[_DLV]

    @property
    def timeout_rate(self) -> float:
        return self.timeouts / self.attempts if self.attempts else 0.0

    @property
    def delivery_rate(self) -> float:
        return self.deliveries / self.attempts if self.attempts else 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<WindowStats[{self.index}] att={self.attempts} "
                f"tmo={self.timeouts} rty={self.retries} "
                f"dlv={self.deliveries}>")


class HealthTracker:
    """Windowed per-link health accounting.

    Reads via :meth:`closed_windows` only ever surface windows
    strictly before the reader's horizon, so a window's counters are
    final by the time a policy folds them.
    """

    def __init__(self, window_us: float = 500.0) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        #: link -> window index -> [attempts, timeouts, retries,
        #: deliveries].
        self._windows: Dict[Link, Dict[int, List[int]]] = {}
        #: Run totals per link (metrics/report rollups).
        self.totals: Dict[Link, List[int]] = {}

    def _slot(self, link: Link, t: float) -> List[int]:
        per_link = self._windows.get(link)
        if per_link is None:
            per_link = self._windows[link] = {}
            self.totals[link] = [0, 0, 0, 0]
        idx = int(t // self.window_us)
        ctr = per_link.get(idx)
        if ctr is None:
            ctr = per_link[idx] = [0, 0, 0, 0]
        return ctr

    def record(self, t: float, src: int, dst: int, *, attempts: int = 0,
               timeouts: int = 0, retries: int = 0,
               deliveries: int = 0) -> None:
        """Commutative add into the window containing ``t``."""
        link = (src, dst)
        ctr = self._slot(link, t)
        tot = self.totals[link]
        if attempts:
            ctr[_ATT] += attempts
            tot[_ATT] += attempts
        if timeouts:
            ctr[_TMO] += timeouts
            tot[_TMO] += timeouts
        if retries:
            ctr[_RTY] += retries
            tot[_RTY] += retries
        if deliveries:
            ctr[_DLV] += deliveries
            tot[_DLV] += deliveries

    def horizon(self, now: float) -> int:
        """First window index that is still open at time ``now``."""
        return int(now // self.window_us)

    def closed_windows(self, src: int, dst: int, after: int,
                       upto: int) -> List[WindowStats]:
        """Windows of link ``(src, dst)`` with ``after < index <
        upto`` that saw any traffic, in index order — the policy
        engine's fold input."""
        per_link = self._windows.get((src, dst))
        if not per_link:
            return []
        return [WindowStats(i, per_link[i])
                for i in sorted(per_link)
                if after < i < upto]

    def link_totals(self) -> Dict[Link, dict]:
        """Run-total health per link, as plain dicts."""
        return {link: {"attempts": tot[_ATT], "timeouts": tot[_TMO],
                       "retries": tot[_RTY], "deliveries": tot[_DLV]}
                for link, tot in self.totals.items()}


def fold_ewma(prev: float, delivery_rate: float, alpha: float) -> float:
    """One EWMA step — kept as a free pure function so the hypothesis
    suite can state determinism/commutation properties directly."""
    return alpha * delivery_rate + (1.0 - alpha) * prev
