"""Flight-recorder exporters: Chrome trace-event JSON and JSONL.

* :func:`export_chrome` renders the log in the Chrome trace-event
  format (the JSON array flavour) — open ``chrome://tracing`` or
  https://ui.perfetto.dev and drop the file in.  One track per UPC
  thread, plus a per-node handler/NIC track; every remote operation
  becomes a span on the initiating thread's track and its target
  handler a span on the target node's track, both carrying the causal
  ``op_id`` in ``args`` (the initiator→target link).
* :func:`dump_jsonl` / :func:`load_jsonl` move the raw event stream in
  and out of newline-delimited JSON for ad-hoc pandas work; the round
  trip reproduces an equivalent :class:`~repro.obs.events.EventLog`.
* :func:`dump_state_csv` writes the Paraver-style time-in-state view
  (section 4.6): one ``thread,state,t0,t1`` row per completed op span.
* :func:`validate_chrome` is the schema check the CI smoke job (and
  the exporter itself) runs: phase letters, timestamp monotonicity,
  begin/end balance.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from repro.obs.events import (
    AM_REPLY_SEND,
    EventLog,
    HANDLER_BEGIN,
    HANDLER_END,
    OP_BEGIN,
    OP_END,
    TraceEvent,
)

#: Trace-event phases the exporter emits / the validator accepts.
CHROME_PHASES = ("B", "E", "X", "C", "M")

#: Op names rendered as B/E pairs (strictly sequential per thread —
#: safe to nest); everything else is a complete "X" span, which stays
#: valid even when split-phase/bulk sub-ops overlap on one thread.
_NESTED_NAMES = ("barrier", "lock", "compute")

#: Synthetic tid for the per-node handler/NIC track.
HANDLER_TID = 1_000_000


def _span_name(begin: TraceEvent, end: Optional[TraceEvent]) -> str:
    name = str(begin.attrs.get("name", "op"))
    proto = end.attrs.get("proto") if end is not None else None
    return f"{name}:{proto}" if proto else name


def op_spans(log: EventLog) -> Iterator[Tuple[TraceEvent, TraceEvent]]:
    """Every completed op span as a ``(begin, end)`` pair, in end order.

    An ``op_end`` whose ``op_begin`` was never recorded (dropped at the
    ``max_events`` cap) yields nothing.
    """
    begins: Dict[int, TraceEvent] = {}
    for e in log:
        if e.kind == OP_BEGIN:
            begins[e.op] = e
        elif e.kind == OP_END:
            b = begins.pop(e.op, None)
            if b is not None:
                yield b, e


def export_chrome(log: EventLog, dest: Union[str, TextIO, None] = None,
                  counters: Optional[list] = None) -> dict:
    """Build (and optionally write) the Chrome trace-event document.

    ``counters`` is an optional list of ``(t, node, name, value)``
    samples (see :class:`~repro.obs.sampler.CounterSampler`) rendered
    as "C" counter events.  The document is validated before being
    returned/written; an invalid document raises ``ValueError`` —
    exports are never silently malformed.
    """
    events: List[dict] = []
    meta: List[dict] = []
    seen_tracks: set = set()
    handler_open: Dict[Tuple[int, int], List[TraceEvent]] = {}
    piggy_ops: set = set()

    def track(pid: int, tid: int, name: str) -> None:
        if (pid, tid) in seen_tracks:
            return
        seen_tracks.add((pid, tid))
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "tid": 0, "ts": 0,
                     "args": {"name": f"node {pid}"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "ts": 0, "args": {"name": name}})

    for e in log:
        if e.kind == HANDLER_BEGIN:
            handler_open.setdefault((e.op, e.node), []).append(e)
        elif e.kind == HANDLER_END:
            stack = handler_open.get((e.op, e.node))
            if not stack:
                continue
            b = stack.pop()
            pid = max(e.node, 0)
            track(pid, HANDLER_TID, "am handler / nic")
            events.append({
                "ph": "X", "name": "am_handler", "pid": pid,
                "tid": HANDLER_TID, "ts": b.t,
                "dur": max(e.t - b.t, 0.0),
                "args": {"op_id": e.op},
            })
        elif e.kind == AM_REPLY_SEND and e.attrs.get("piggyback"):
            piggy_ops.add(e.op)

    for b, e in op_spans(log):
        pid, tid = max(b.node, 0), max(b.thread, 0)
        track(pid, tid, f"upc thread {tid}")
        name = _span_name(b, e)
        args = {"op_id": e.op}
        for k in ("nbytes", "proto", "index", "segments", "parent"):
            v = e.attrs.get(k, b.attrs.get(k))
            if v is not None:
                args[k] = v
        if e.op in piggy_ops:
            args["piggyback"] = True
        if b.attrs.get("name") in _NESTED_NAMES:
            events.append({"ph": "B", "name": name, "pid": pid,
                           "tid": tid, "ts": b.t, "args": args})
            events.append({"ph": "E", "name": name, "pid": pid,
                           "tid": tid, "ts": e.t, "args": {}})
        else:
            events.append({"ph": "X", "name": name, "pid": pid,
                           "tid": tid, "ts": b.t,
                           "dur": max(e.t - b.t, 0.0), "args": args})

    if counters:
        for t, node, name, value in counters:
            pid = max(int(node), 0)
            events.append({"ph": "C", "name": str(name), "pid": pid,
                           "tid": 0, "ts": float(t),
                           "args": {"value": float(value)}})

    events.sort(key=lambda d: d["ts"])
    doc = {"traceEvents": meta + events, "displayTimeUnit": "ms"}
    problems = validate_chrome(doc)
    if problems:
        raise ValueError("invalid chrome trace: " + "; ".join(problems))
    if dest is not None:
        if isinstance(dest, str):
            with open(dest, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        else:
            json.dump(doc, dest)
    return doc


def validate_chrome(doc: object) -> List[str]:
    """Schema check for a trace-event document; returns problems
    (empty list == valid).

    Checks: top-level shape, phase letters limited to B/E/X/C/M,
    numeric non-decreasing ``ts`` (metadata aside), non-negative "X"
    durations, and B/E balance per (pid, tid) track.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not a dict with a traceEvents list"]
    evs = doc["traceEvents"]
    if not isinstance(evs, list):
        return ["traceEvents is not a list"]
    last_ts = None
    stacks: Dict[Tuple, List[str]] = {}
    for i, e in enumerate(evs):
        if not isinstance(e, dict):
            problems.append(f"event #{i} is not an object")
            continue
        ph = e.get("ph")
        if ph not in CHROME_PHASES:
            problems.append(f"event #{i} has phase {ph!r} "
                            f"(allowed: {'/'.join(CHROME_PHASES)})")
            continue
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event #{i} has non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event #{i} ts {ts} < previous {last_ts} "
                "(not monotone)")
        last_ts = ts
        if ph == "X" and e.get("dur", 0) < 0:
            problems.append(f"event #{i} has negative dur")
        if not isinstance(e.get("name"), str):
            problems.append(f"event #{i} has no string name")
        key = (e.get("pid"), e.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(e.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(
                    f"event #{i}: E without matching B on track {key}")
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(
                f"track {key}: {len(stack)} unclosed B event(s)")
    return problems


# -- CSV ---------------------------------------------------------------

#: Column header of :func:`dump_state_csv`.
STATE_CSV_HEADER = ("thread", "state", "t0", "t1")


def dump_state_csv(log: EventLog, dest: Union[str, TextIO]) -> int:
    """Time-in-state intervals, one row per completed op span.

    The state is the span name (``compute``, ``barrier``,
    ``get:rdma``, ``put:am``, ``bulk_get:bulk``, ...); times are
    ``repr`` floats so the file round-trips exactly.  Outer bulk spans
    and their per-segment sub-op spans both appear, so per-state sums
    can overlap in time on one thread.  Returns the number of rows.
    """
    if isinstance(dest, str):
        with open(dest, "w", newline="", encoding="utf-8") as fh:
            return dump_state_csv(log, fh)
    writer = csv.writer(dest)
    writer.writerow(STATE_CSV_HEADER)
    n = 0
    for b, e in op_spans(log):
        writer.writerow([b.thread, _span_name(b, e), repr(b.t), repr(e.t)])
        n += 1
    return n


# -- JSONL -------------------------------------------------------------

def _jsonable(value):
    """Coerce numpy scalars and other int/float-likes for json."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def dump_jsonl(log: EventLog, dest: Union[str, TextIO]) -> int:
    """One event per line; returns the number of lines written."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            return dump_jsonl(log, fh)
    n = 0
    for e in log:
        record = {"t": e.t, "kind": e.kind, "op": e.op,
                  "thread": e.thread, "node": e.node,
                  "attrs": {k: _jsonable(v) for k, v in e.attrs.items()}}
        dest.write(json.dumps(record) + "\n")
        n += 1
    if log.dropped_events:
        dest.write(json.dumps({"kind": "meta",
                               "dropped_events": log.dropped_events})
                   + "\n")
        n += 1
    return n


def load_jsonl(src: Union[str, TextIO]) -> EventLog:
    """Inverse of :func:`dump_jsonl`: an equivalent EventLog."""
    if isinstance(src, str):
        with open(src, encoding="utf-8") as fh:
            return load_jsonl(fh)
    log = EventLog()
    for line in src:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("kind") == "meta":
            log.dropped_events = int(rec.get("dropped_events", 0))
            continue
        log.append(TraceEvent(
            t=float(rec["t"]), kind=rec["kind"], op=int(rec["op"]),
            thread=int(rec["thread"]), node=int(rec["node"]),
            attrs=rec.get("attrs") or {}))
    return log
