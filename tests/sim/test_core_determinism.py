"""The event core's schedule is pinned, refereed and recycling.

* **Pinned corpus digests.**  Each fuzz-corpus program replayed on the
  gm-base configuration must dispatch the same number of events, end
  at the same clock value and write a byte-identical flight-recorder
  JSONL (compared by sha256) as the core these values were recorded
  on.  These are full-runtime replays (network, cache, bulk engine,
  progress engines all live), so any drift means an observable
  schedule changed, not just a micro-detail.
* **Flat-memory oracle.**  The same replay must agree with the
  sequential oracle.
* **Recycling gate.**  Heap entries and kernel-internal events are
  drawn from free lists; after a 256-thread run both lists must hold
  about one object per concurrently pending event, while the run
  dispatched tens of thousands of events.  This holds on any host and
  fails exactly when pooling or recycling breaks.
"""

import glob
import hashlib
import os
from dataclasses import replace

import pytest

from repro.network import GM_MARENOSTRUM
from repro.obs.events import EventLog
from repro.obs.export import dump_jsonl
from repro.runtime.runtime import Runtime
from repro.testing.oracle import run_oracle
from repro.testing.program import Program
from repro.testing.runner import _Driver, config_by_name, run_config
from repro.workloads import FieldParams, PointerParams, run_field, run_pointer
from repro.workloads.dis.common import DISBase

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "fuzz", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

#: corpus file -> (events dispatched, final clock, sha256 of the JSONL).
PINNED = {
    "seed0-22ops.json": (
        247, 264.2788696289062,
        "eb57ab0664dc6e03e65574eda9b43d6e4d45086d51e9d60ae8836e33527ec85f"),
    "seed3-26ops.json": (
        270, 232.44339355468747,
        "31257b431addf41571b6757945d10f8f1b8a3e0669002eb125806a698b9662bb"),
    "seed5-32ops.json": (
        251, 268.5187866210936,
        "5169f6215961233d43ab50b7c3bd0a4973f5bed31775b50a8fc583344020af4f"),
    "seed9-18ops.json": (
        177, 179.05067749023436,
        "d313779d71561d7e1fd1b0310ba8a7b08a3d95390e8a2feb73255c8055c3947d"),
}


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Program.loads(fh.read())


@pytest.mark.parametrize(
    "corpus", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_schedule_matches_pinned_digest(corpus, tmp_path):
    program = _load(corpus)
    point = config_by_name("gm-base")
    events = EventLog()
    cfg = replace(point.runtime_config(program.nthreads,
                                       seed=program.seed or 0),
                  events=events)
    rt = Runtime(cfg)
    driver = _Driver(rt, program)
    rt.spawn(driver.kernel)
    rt.run()
    path = tmp_path / "run.jsonl"
    dump_jsonl(events, str(path))
    blob = path.read_bytes()
    assert blob
    got = (rt.sim.events_processed, rt.sim.now,
           hashlib.sha256(blob).hexdigest())
    assert got == PINNED[os.path.basename(corpus)]


def test_event_core_agrees_with_flat_oracle():
    """The flat-memory oracle referees the event core directly:
    replaying a corpus program on the runtime must produce zero
    divergences from flat memory."""
    program = _load(CORPUS[0])
    point = config_by_name("gm-base")
    divergences = run_config(program, point, run_oracle(program))
    assert divergences == []


NTHREADS = 256


@pytest.mark.parametrize("run, params", [
    (run_field, FieldParams(machine=GM_MARENOSTRUM, nthreads=NTHREADS,
                            seed=1, ntokens=4)),
    (run_pointer, PointerParams(machine=GM_MARENOSTRUM, nthreads=NTHREADS,
                                seed=1, hops=24)),
], ids=["field", "pointer"])
def test_free_lists_recycle_on_the_real_runtime(run, params, monkeypatch):
    made = []
    build = DISBase.runtime

    def capture(self):
        rt = build(self)
        made.append(rt)
        return rt

    monkeypatch.setattr(DISBase, "runtime", capture)
    run(params)
    sim = made[0].sim
    assert sim.pending == 0
    # Every thread's start kick is pending at once, so at least
    # NTHREADS entries and events were live together; once drained,
    # all of them are back on the free lists.  A free list that is
    # never refilled stays near empty; one that is never drawn from
    # grows with the event count.
    for pool in (sim._entry_pool, sim._event_pool):
        assert NTHREADS <= len(pool) <= 2 * NTHREADS
    assert sim.events_processed > 50 * NTHREADS
