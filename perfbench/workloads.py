"""The benchmark's workloads, their inputs and their output checks.

Two DIS stressmarks run through :func:`repro.workloads.run_pointer` and
:func:`repro.workloads.run_field`; two KV traffic mixes drive
:class:`repro.service.KVStore` on a :class:`repro.runtime.Runtime`
from open-loop UPC client threads written here.  Every input derives
from the seed; every run's outputs are checked against a reference the
benchmark computes on its own.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from spantrace import patched

from repro.faults.reliability import ReliabilityError
from repro.faults.trace import LinkTrace, make_trace
from repro.network import GM_MARENOSTRUM
from repro.obs.breakdown import collect_breakdowns, summarize
from repro.obs.events import EventLog
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.thread import UPCThread
from repro.service.kvstore import KV_MISSING, KVStore, kv_create
from repro.util.rng import seeded_rng
from repro.workloads.dis.field import FieldParams, run_field
from repro.workloads.dis.pointer import PointerParams, run_pointer


@dataclass
class Rep:
    """One execution of a workload, from runtime construction to the
    end of :meth:`Runtime.run`."""

    #: Host seconds before the measured phase (runtime construction,
    #: input generation; for KV also store build and preload).
    setup_s: float
    #: Host seconds of the measured phase.
    run_s: float
    #: The runtime that ran (its counters are the run's public results);
    #: dropped once they have been read.
    rt: Optional[Runtime]
    #: Virtual µs from the start of the measured phase to the last
    #: thread's exit.
    virtual_us: float
    #: Per-request virtual latency (µs).
    latency_us: np.ndarray
    #: Per-request generator lateness (µs; zeros for closed-loop DIS).
    lateness_us: np.ndarray
    #: Requests that failed or returned a wrong value.
    failed: int
    #: Descriptions of failed output checks (empty when correct).
    errors: List[str]
    #: Everything simulated that must repeat exactly across runs
    #: (long outputs as digests).
    fingerprint: tuple


class SetupDone(Exception):
    """Raised in place of :meth:`Runtime.run` by a setup-only probe."""


class Probe:
    """Times :meth:`Runtime.run` and keeps the runtime it ran on.

    Given ``step_call``, it also stamps the virtual time at which every
    UPC thread completes a barrier or a call of that
    :class:`~repro.runtime.thread.UPCThread` method: the boundaries of
    the kernel steps that are a DIS workload's requests.  Given
    ``setup_only``, it raises :class:`SetupDone` instead of running.
    """

    def __init__(self, step_call: Optional[str] = None,
                 setup_only: bool = False) -> None:
        self.step_call = step_call
        self.setup_only = setup_only
        self.rt: Optional[Runtime] = None
        self.t_start = self.t_end = 0.0
        #: thread id -> [(virtual µs, True if a barrier)] in order.
        self.stamps: Dict[int, List[Tuple[float, bool]]] = defaultdict(list)

    def _stamped(self, method, barrier: bool):
        stamps = self.stamps

        def stamped(th, *args, **kwargs):
            out = yield from method(th, *args, **kwargs)
            stamps[th.id].append((th.runtime.sim.now, barrier))
            return out
        return stamped

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        run = vars(Runtime)["run"]

        def timed_run(rt, *args, **kwargs):
            self.rt = rt
            self.t_start = perf_counter()
            if self.setup_only:
                raise SetupDone
            try:
                return run(rt, *args, **kwargs)
            finally:
                self.t_end = perf_counter()

        patches = [(Runtime, "run", timed_run)]
        if self.step_call is not None:
            patches += [
                (UPCThread, "barrier",
                 self._stamped(vars(UPCThread)["barrier"], True)),
                (UPCThread, self.step_call,
                 self._stamped(vars(UPCThread)[self.step_call], False))]
        with ExitStack() as stack:
            for cls, name, fn in patches:
                stack.enter_context(patched(cls, name, fn))
            yield self

    def step_latencies(self) -> np.ndarray:
        """Each thread's step durations: from the end of its first
        barrier to its first step call's return, then between
        successive step calls' returns."""
        out = []
        for stamps in self.stamps.values():
            first = next(i for i, (_, barrier) in enumerate(stamps)
                         if barrier)
            times = [stamps[first][0]] + [t for t, barrier in
                                          stamps[first + 1:] if not barrier]
            out.append(np.diff(times))
        return np.concatenate(out)


def _digest(values) -> str:
    """A short stand-in for a long output, equal iff the outputs are."""
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _counters(rt: Runtime, run) -> tuple:
    """The simulated statistics a run must reproduce exactly."""
    m, cs, tc = run.metrics, run.cache_stats, rt.cluster.transport.counters
    return (run.elapsed_us, run.sim_events,
            (cs.hits, cs.misses, cs.insertions, cs.evictions,
             cs.invalidations),
            (m.rdma_gets, m.rdma_puts, m.am_gets, m.am_puts, m.barriers,
             m.lock_acquires, m.bulk_messages, m.bulk_coalesced_segments,
             m.kv_onesided_ops, m.kv_rpc_ops, m.kv_failover_ops, m.retries,
             m.timeouts, m.rdma_timeouts, m.faults_injected,
             m.policy_actions, m.max_backlog),
            (tc.am_requests, tc.rdma_gets, tc.rdma_puts, tc.bytes_am,
             tc.bytes_rdma))


# ---------------------------------------------------------------------------
# DIS stressmarks
# ---------------------------------------------------------------------------

def pointer_params(seed: int) -> PointerParams:
    return PointerParams(machine=GM_MARENOSTRUM, nthreads=1024, seed=seed)


def field_params(seed: int) -> FieldParams:
    return FieldParams(machine=GM_MARENOSTRUM, nthreads=1024, seed=seed)


def pointer_reference(p: PointerParams) -> Tuple[tuple, int]:
    """Each thread's final position, by walking the chain in NumPy from
    the start the thread draws, and the number of GETs issued.

    The chain and starts are regenerated here from the seed exactly as
    the stressmark generates them (a single random cycle; each thread's
    first draw from its own stream).
    """
    perm = seeded_rng(p.seed, 0x0D15).permutation(p.nelems)
    chain = np.empty(p.nelems, dtype=np.int64)
    chain[perm] = np.roll(perm, -1)
    idx = np.array([int(seeded_rng(p.seed, t).integers(p.nelems))
                    for t in range(p.nthreads)], dtype=np.int64)
    for _ in range(p.hops):
        idx = chain[idx]
    return tuple(int(i) for i in idx), p.nthreads * p.hops


def field_reference(p: FieldParams) -> Tuple[tuple, int]:
    """Each thread's token-match count, recounted over the whole string
    in NumPy, and the number of GET/PUT/memget calls the kernel issues.

    A thread counts matches starting inside its block plus, except for
    the last block, matches spanning into the next block's first
    ``token_len - 1`` words.  It issues per token one memget, one GET
    per boundary probe, one strict PUT, and one PUT when its block holds
    a match.
    """
    rng = seeded_rng(p.seed, 0xF1E1D)
    words = rng.integers(0, p.alphabet, size=p.nelems, dtype=np.uint64)
    tokens = [rng.integers(0, p.alphabet, size=p.token_len, dtype=np.uint64)
              for _ in range(p.ntokens)]
    bs = -(-p.nelems // p.nthreads)
    L = p.token_len
    windows = sliding_window_view(words, L)
    counts = np.zeros(p.nthreads, dtype=np.int64)
    ops = 0
    for token in tokens:
        starts = np.concatenate(
            [[0], np.cumsum((windows == token).all(axis=1))])

        def matches(lo: int, hi: int) -> int:   # starts in [lo, hi)
            hi = max(lo, min(hi, len(windows)))
            return int(starts[hi] - starts[lo])

        for t in range(p.nthreads):
            lo, hi = t * bs, min(t * bs + bs, p.nelems)
            local = matches(lo, hi - L + 1)
            counts[t] += local
            if hi < p.nelems:
                width = min(L - 1, bs, p.nelems - hi)
                counts[t] += matches(hi - L + 1, hi + width - L + 1)
            ops += 2 + p.boundary_probes + (1 if local else 0)
    return tuple(int(c) for c in counts), ops


@dataclass(frozen=True)
class DISWorkload:
    """A DIS stressmark run through the program's own runner."""

    make_params: Callable
    runner: Callable
    #: ``params -> (expected functional output, data-movement calls)``.
    recount: Callable
    #: The :class:`UPCThread` call that ends one kernel step (request).
    step_call: str
    kind: str = "dis"
    #: Setup-only repetitions per full one: a setup takes a few tens of
    #: ms, so one sample per full repetition leaves its median noisy.
    setup_reps = 3

    def reference(self, seed: int) -> Tuple[tuple, int]:
        return self.recount(self.make_params(seed))

    def setup(self, seed: int) -> float:
        """Host seconds from the runner's call to :meth:`Runtime.run`."""
        probe = Probe(setup_only=True)
        t0 = perf_counter()
        with probe.installed():
            try:
                self.runner(self.make_params(seed))
            except SetupDone:
                pass
        return probe.t_start - t0

    def run(self, seed: int, events: Optional[EventLog] = None,
            expected: Optional[tuple] = None) -> Rep:
        p = self.make_params(seed)
        if events is not None:
            p = replace(p, events=events)
        probe = Probe(self.step_call)
        t0 = perf_counter()
        with probe.installed():
            result = self.runner(p)
        errors = []
        failed = 0
        if expected is not None and result.check != expected:
            failed = sum(a != b for a, b in zip(result.check, expected))
            errors.append(f"functional check: {failed} of {len(expected)} "
                          f"threads differ from the NumPy reference")
        return Rep(setup_s=probe.t_start - t0,
                   run_s=probe.t_end - probe.t_start, rt=probe.rt,
                   virtual_us=result.elapsed_us,
                   latency_us=probe.step_latencies(),
                   lateness_us=np.zeros(0), failed=failed, errors=errors,
                   fingerprint=(_counters(probe.rt, result.run),
                                _digest(result.check)))


# ---------------------------------------------------------------------------
# KV traffic on the real runtime
# ---------------------------------------------------------------------------

GET, MGET, PUT = 0, 1, 2

#: Bits of a stored value that carry the write's version.
_VERSION_BITS = 24

#: Odd multiplier mapping Zipf popularity ranks to keys.
_KEY_SCATTER = 2654435761

#: Slots per hash bucket: at two keys per bucket on average, four
#: slots leave room for uneven hashing.
_SLOTS_PER_BUCKET = 4

#: Zipf exponent of key popularity, the usual KV-cache skew.
_ZIPF_S = 0.99

#: Shares of PUTs and of multi_gets among requests (the rest are GETs):
#: enough writes to contend on stripe locks beside a read-mostly mix,
#: and enough multi_gets for the bulk engine to coalesce per home.
_PUT_FRAC = 0.10
_MGET_FRAC = 0.20

#: Keys per multi_get.
_MGET_KEYS = 4

#: Every ``_RPC_EVERY``-th client reads over the RPC path, so one-sided
#: and RPC reads queue on the same homes.
_RPC_EVERY = 4

#: Seeds of the ``flap`` traces whose links flap together in
#: ``kv_lossy``, and the loss while a link is down: the same links flap
#: on the same schedule for every workload seed, so seeds vary only the
#: traffic.
_FLAP_SEEDS = tuple(range(16))
_FLAP_LOSS = 0.3


def encode(key: int, version: int) -> int:
    return (key << _VERSION_BITS) | version


@dataclass(frozen=True)
class KVParams:
    """Open-loop KV traffic: each client thread's requests fall due at
    Poisson arrival instants whether or not its previous request is
    done; a request late in issuing counts its wait as latency."""

    seed: int = 0
    nthreads: int = 64
    threads_per_node: int = 4
    nkeys: int = 4096
    nbuckets: int = 2048
    nlocks: int = 16
    requests_per_client: int = 400
    #: Mean gap between one client's arrivals (virtual µs).
    mean_gap_us: float = 70.0
    #: Flapping links over the whole arrival window (see
    #: :func:`flapping_links`) under the ``disable_and_repair`` policy.
    lossy: bool = False

    @property
    def requests(self) -> int:
        return self.nthreads * self.requests_per_client


@dataclass
class KVInputs:
    """Per client: arrival offsets (µs), op kinds, key lists, and for
    PUTs the version each one writes."""

    due: List[np.ndarray]
    kind: List[np.ndarray]
    keys: List[List[Tuple[int, ...]]]
    version: List[np.ndarray]


def kv_inputs(p: KVParams) -> KVInputs:
    """Arrivals, op kinds, Zipf-skewed keys, and a version per PUT.

    Each client's arrivals are a Poisson process over a fixed window of
    ``requests_per_client * mean_gap_us`` conditioned on its request
    count (sorted uniform instants), so every seed offers the same load
    for the same virtual time.  Key popularity ranks map to keys by a
    fixed odd multiplier, which scatters the hot keys over buckets and
    home nodes identically for every seed.  PUTs of a key carry
    versions 1, 2, ... in (client, request) order; the preload writes
    version 0.
    """
    rank_to_key = (np.arange(p.nkeys, dtype=np.int64) * _KEY_SCATTER
                   % p.nkeys)
    if len(set(rank_to_key.tolist())) != p.nkeys:
        raise ValueError("nkeys must be coprime with the key scatter")
    weights = 1.0 / np.arange(1, p.nkeys + 1) ** _ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    next_version = np.ones(p.nkeys, dtype=np.int64)
    out = KVInputs([], [], [], [])
    n = p.requests_per_client
    for c in range(p.nthreads):
        crng = seeded_rng(p.seed, 0x4B56, c)
        out.due.append(np.sort(crng.uniform(0.0, n * p.mean_gap_us, n)))
        u = crng.random(n)
        kind = np.where(u < _PUT_FRAC, PUT,
                        np.where(u < _PUT_FRAC + _MGET_FRAC, MGET, GET))
        ranks = np.minimum(np.searchsorted(cdf, crng.random((n, _MGET_KEYS))),
                           p.nkeys - 1)
        keys = rank_to_key[ranks]
        version = np.zeros(n, dtype=np.int64)
        rows = []
        for i in range(n):
            if kind[i] == MGET:
                rows.append(tuple(int(k) for k in keys[i]))
            else:
                k = int(keys[i, 0])
                rows.append((k,))
                if kind[i] == PUT:
                    version[i] = next_version[k]
                    next_version[k] += 1
        out.kind.append(kind)
        out.keys.append(rows)
        out.version.append(version)
    return out


@dataclass
class _KVRecord:
    due: float
    issue: float
    done: float
    kind: int
    keys: Tuple[int, ...]
    values: Optional[List[int]]
    version: int
    ok: bool


@dataclass
class _KVState:
    t_ready: float = 0.0
    vt_ready: float = 0.0
    store: Optional[KVStore] = None
    records: Dict[int, List[_KVRecord]] = field(default_factory=dict)


def flapping_links(p: KVParams, nnodes: int) -> LinkTrace:
    """Several independently phased ``flap`` links over the whole
    arrival window: enough lost messages per run that the tail the
    faults cause is measured on a few hundred requests, not a few."""
    window = p.requests_per_client * p.mean_gap_us
    rules = {}
    for seed in _FLAP_SEEDS:
        for rule in make_trace("flap", nnodes, seed, horizon_us=window,
                               down_loss=_FLAP_LOSS).links:
            rules.setdefault((rule.src, rule.dst), rule)
    return LinkTrace(seed=_FLAP_SEEDS[0], name="flap",
                     links=tuple(rules.values()))


def _kv_config(p: KVParams, events: Optional[EventLog]) -> RuntimeConfig:
    nnodes = -(-p.nthreads // p.threads_per_node)
    lossy = dict(link_trace=flapping_links(p, nnodes),
                 repair_policy="disable_and_repair") if p.lossy else {}
    return RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=p.nthreads,
                         threads_per_node=p.threads_per_node, seed=p.seed,
                         events=events, **lossy)


def run_kv(p: KVParams, events: Optional[EventLog] = None) -> Rep:
    """Build the store, preload every key, then replay the open-loop
    schedule; check every read and the final store image."""
    t0 = perf_counter()
    inputs = kv_inputs(p)
    rt = Runtime(_kv_config(p, events))
    tpn = p.threads_per_node
    locks = [rt.alloc_lock(owner_thread=(i * tpn) % p.nthreads)
             for i in range(p.nlocks)]
    state = _KVState()

    def client(th):
        sim = th.runtime.sim
        store = yield from kv_create(th, p.nbuckets, _SLOTS_PER_BUCKET,
                                     locks=locks)
        reader = store
        if th.id % _RPC_EVERY == _RPC_EVERY - 1:
            reader = KVStore(th.runtime, store.array, p.nbuckets,
                             _SLOTS_PER_BUCKET, locks=locks, access="rpc")
        for key in range(th.id, p.nkeys, p.nthreads):
            yield from store.put(th, key, encode(key, 0))
        yield from th.barrier()
        if state.store is None:
            state.t_ready, state.vt_ready = perf_counter(), sim.now
            state.store = store
        start = sim.now
        recs = state.records[th.id] = []
        kinds, keys = inputs.kind[th.id], inputs.keys[th.id]
        versions, dues = inputs.version[th.id], inputs.due[th.id]
        for i in range(p.requests_per_client):
            due = start + float(dues[i])
            if due > sim.now:
                yield from th.compute(due - sim.now)
            issue = sim.now
            kind, ks, values, ok = int(kinds[i]), keys[i], None, True
            try:
                if kind == GET:
                    values = [(yield from reader.get(th, ks[0]))]
                elif kind == MGET:
                    values = (yield from reader.multi_get(th, list(ks)))
                else:
                    yield from store.put(th, ks[0],
                                         encode(ks[0], int(versions[i])))
            except ReliabilityError:
                ok = False
            recs.append(_KVRecord(due, issue, sim.now, kind, ks, values,
                                  int(versions[i]), ok))

    probe = Probe()
    with probe.installed():
        rt.spawn(client)
        run = rt.run()
    t_end = probe.t_end
    records = [r for t in sorted(state.records) for r in state.records[t]]
    final = state.store.snapshot()
    failed, errors = _check_kv(p, records, final)
    fingerprint = (_counters(rt, run), _digest(
        [(r.issue, r.done, r.values) for r in records]),
        _digest(sorted(final.items())))
    return Rep(setup_s=state.t_ready - t0, run_s=t_end - state.t_ready,
               rt=rt, virtual_us=run.elapsed_us - state.vt_ready,
               latency_us=np.array([r.done - r.due for r in records]),
               lateness_us=np.array([r.issue - r.due for r in records]),
               failed=failed, errors=errors, fingerprint=fingerprint)


def _check_kv(p: KVParams, records: List[_KVRecord],
              snapshot: Dict[int, int]):
    """Every read returns the value its key must hold, and every key
    ends holding the value of its last completed PUT.

    A read may return the value of the key's last PUT that completed
    no later than the read was issued (the preload, version 0, when
    there is none), or of a PUT that completed after that one and was
    issued no later than the read completed: the writes it overlapped.
    PUTs to a key serialize on the key's stripe lock, so the last to
    complete wrote last.  A failed PUT may or may not have written, so
    on its key any value written before the read completed passes and
    the final value is not checked (the failure fails the run anyway).
    """
    puts: Dict[int, List[_KVRecord]] = defaultdict(list)
    for r in records:
        if r.kind == PUT:
            puts[r.keys[0]].append(r)
    for writes in puts.values():
        writes.sort(key=lambda w: w.done)
    done_at = {key: [w.done for w in writes] for key, writes in puts.items()}
    by_version = {(key, w.version): w
                  for key, writes in puts.items() for w in writes}
    unknown = {key for key, writes in puts.items()
               if not all(w.ok for w in writes)}

    def allowed(key: int, version: int, read: _KVRecord) -> bool:
        put = by_version.get((key, version))
        if key in unknown:   # any value written before the read ended
            return version == 0 or (put is not None
                                    and put.issue <= read.done)
        settled = bisect_right(done_at.get(key, ()), read.issue)
        if version == (puts[key][settled - 1].version if settled else 0):
            return True
        return (put is not None and put.done > read.issue
                and put.issue <= read.done)

    failed = sum(not r.ok for r in records)
    wrong = 0
    for r in records:
        if r.kind == PUT or not r.ok:
            continue
        for key, value in zip(r.keys, r.values):
            if (value == KV_MISSING or value >> _VERSION_BITS != key
                    or not allowed(key, value & ((1 << _VERSION_BITS) - 1),
                                   r)):
                wrong += 1
                break
    errors = []
    if wrong:
        errors.append(f"{wrong} reads returned a value their key could not "
                      f"hold")
    expected = {k: encode(k, puts[k][-1].version if k in puts else 0)
                for k in range(p.nkeys) if k not in unknown}
    stale = sum(snapshot.get(k) != v for k, v in expected.items())
    if stale or len(snapshot) != p.nkeys:
        errors.append(f"final store image: {stale} keys differ from their "
                      f"last completed write, {len(snapshot)} keys present")
    return failed + wrong, errors


@dataclass(frozen=True)
class KVWorkload:
    params: KVParams
    kind: str = "kv"
    #: A KV setup (store build and preload) takes most of a second and
    #: ends inside :meth:`Runtime.run`; only full repetitions sample it.
    setup_reps = 0

    def reference(self, seed: int) -> Tuple[None, int]:
        """Reads are checked against the run's own writes, so there is
        no precomputed output; the request count is fixed."""
        return None, self.params.requests

    def run(self, seed: int, events: Optional[EventLog] = None,
            expected=None) -> Rep:
        return run_kv(replace(self.params, seed=seed), events)


WORKLOADS = {
    # A Pointer step is one hop (GET plus pointer arithmetic); a Field
    # step is one token on one thread (scan, overhang reads, strict
    # delimiter update).
    "pointer_miss": DISWorkload(pointer_params, run_pointer,
                                pointer_reference, "get"),
    "field_hit": DISWorkload(field_params, run_field, field_reference,
                             "put_strict"),
    "kv_mixed": KVWorkload(KVParams()),
    "kv_lossy": KVWorkload(KVParams(lossy=True)),
}


def vt_split(events: EventLog) -> Dict[str, float]:
    """Mean virtual µs per remote GET in each breakdown component."""
    summary = summarize(collect_breakdowns(events))
    return {comp: summary.by_component[comp].mean
            if summary.n_ops else 0.0
            for comp in ("software", "queue", "wire", "handler")}
