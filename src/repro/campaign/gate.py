"""The shared ``--baseline`` regression gate for the baseline-gated
benches (``bench_kv_service``, ``bench_lossy_fabric``).

Every bench used to carry (or lack) its own baseline check with subtly
different semantics, and a missing baseline file was silently ignored.
This module is the one copy:

* a bench declares its gated quantities as :class:`GateMetric`\\ s —
  a name, an extractor mapping a report document to labelled scalar
  values, a direction, and whether the metric is meaningful across
  mix modes;
* :func:`check_baseline` loads the baseline through
  :func:`~repro.campaign.artifacts.load_json_artifact`, so a missing
  or truncated baseline is a named :class:`BaselineError` — never a
  silent skip, never a raw ``JSONDecodeError``;
* when the run's ``mode`` differs from the baseline's (CI gates a
  ``--quick`` run against the committed full-mode report) the
  tolerance widens to at least ``cross_mode_tolerance`` and metrics
  flagged ``skip_cross_mode`` are skipped with a note — the quick
  mixes are structurally different, not regressed.

The defaults are a 20% tolerance, widened to 35% across modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.campaign.artifacts import BaselineError, load_json_artifact

__all__ = ["GateMetric", "GateResult", "check_baseline",
           "BaselineError"]

#: Extractor signature: report document -> [(label, value), ...].
Extractor = Callable[[Dict], List[Tuple[str, float]]]


@dataclass(frozen=True)
class GateMetric:
    """One gated quantity.

    ``extract`` returns labelled scalars from a report document; the
    gate compares labels present in *both* run and baseline.  Prefer
    dimensionless ratios (speedups, trends, fractions) — they travel
    across machines, absolute wall-clock does not.
    """

    name: str
    extract: Extractor
    higher_is_better: bool = True
    #: Skip when run and baseline mix modes differ (quick vs full).
    skip_cross_mode: bool = False


@dataclass
class GateResult:
    problems: List[str]
    notes: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def check_baseline(report: Dict, baseline_path: str,
                   metrics: Sequence[GateMetric], *,
                   tolerance: float = 0.20,
                   cross_mode_tolerance: float = 0.35) -> GateResult:
    """Gate ``report`` against the committed baseline artifact.

    Raises :class:`BaselineError` if the baseline is missing or
    corrupt; returns the per-metric problems (regressions beyond
    tolerance) and notes (cross-mode skips, labels absent from one
    side).
    """
    baseline = load_json_artifact(baseline_path, what="baseline",
                                  error=BaselineError)
    cross_mode = report.get("mode") != baseline.get("mode")
    if cross_mode:
        tolerance = max(tolerance, cross_mode_tolerance)

    problems: List[str] = []
    notes: List[str] = []
    if cross_mode:
        notes.append(
            f"mode mismatch (run={report.get('mode')!r} vs baseline="
            f"{baseline.get('mode')!r}): tolerance widened to "
            f"{tolerance:.0%}")
    for metric in metrics:
        if cross_mode and metric.skip_cross_mode:
            notes.append(f"{metric.name}: skipped (not comparable "
                         f"across mix modes)")
            continue
        base = dict(metric.extract(baseline))
        for label, value in metric.extract(report):
            bval = base.get(label)
            if bval is None:
                notes.append(f"{metric.name} {label}: not in "
                             f"baseline, skipped")
                continue
            if metric.higher_is_better:
                floor = bval * (1.0 - tolerance)
                if value < floor:
                    problems.append(
                        f"{metric.name} {label}: {value:.2f} fell "
                        f">{tolerance:.0%} below baseline "
                        f"{bval:.2f} (floor {floor:.2f})")
            else:
                ceil = bval * (1.0 + tolerance)
                if value > ceil:
                    problems.append(
                        f"{metric.name} {label}: {value:.2f} rose "
                        f">{tolerance:.0%} above baseline "
                        f"{bval:.2f} (ceiling {ceil:.2f})")
    return GateResult(problems=problems, notes=notes)
