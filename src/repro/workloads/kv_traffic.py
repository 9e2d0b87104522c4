"""Open-loop KV service traffic on the XLUPC runtime.

The service-level companion to the fuzz suite: where the differential
fuzzer proves the KV store's *semantics*, this module measures the KV
*service* — the flow-completion time (FCT) of Zipf-keyed requests that
UPC client threads issue through :class:`~repro.service.KVStore` on a
:class:`~repro.runtime.Runtime`:

* **open loop** — every UPC thread is a client whose requests fall due
  at Poisson arrival instants whether or not its previous request is
  done.  FCT runs from the due time to the return of the
  ``KVStore.get/put`` call, so a request issued late counts its wait
  and offered load shows up as queueing (in the home nodes' progress
  engines and NICs, and on the stripe locks);
* **hit / miss** — a request is a *hit* when every remote access it
  made resolved over RDMA through the runtime's remote-address cache,
  a *miss* when any resolved to the AM path (cache miss, RDMA
  fallback).  A request whose bucket lives on the client's own node is
  *local* and counts as neither;
* **faults** — a link trace and repair policy configure the runtime's
  own fault injector, transport reliability layer and
  :meth:`KVStore._path` failover; a request whose retransmits are
  exhausted is counted as a failure;
* **observers** — FCTs land in fixed-edge 256-bin log histograms, and
  the streaming SLO monitor (:mod:`repro.obs.slo`) watches the same
  completions.  Neither schedules a simulator event, so the same
  parameters reproduce the same run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.faults.policy import decisions_digest
from repro.faults.reliability import ReliabilityError
from repro.faults.trace import LinkTrace, make_trace
from repro.network.params import MACHINES
from repro.obs.events import EventLog
from repro.obs.slo import SLOMonitor, detect_anomalies, slo_summary
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.service.kvstore import kv_create
from repro.util.rng import seeded_rng

#: Fixed histogram geometry: 256 log-spaced bins over [0.1 µs, 1 s].
HIST_BINS = 256
_HIST_LO_US = 0.1
_HIST_HI_US = 1e6
_LOG_LO = math.log(_HIST_LO_US)
_LOG_SPAN = math.log(_HIST_HI_US) - _LOG_LO

#: Stripe locks serializing one-sided PUTs (owners spread over nodes).
_NLOCKS = 16

#: Stream salt of the per-client traffic generators.
_STREAM = 0x4B56

#: Independently seeded links one scenario shape degrades at once (see
#: :func:`scenario_trace`).
SCENARIO_LINKS = 16


def hist_edges() -> np.ndarray:
    """The (BINS + 1) bin edges in µs."""
    return np.exp(_LOG_LO + _LOG_SPAN * np.arange(HIST_BINS + 1)
                  / HIST_BINS)


def _bin_of(fct_us: float) -> int:
    if fct_us <= _HIST_LO_US:
        return 0
    b = int((math.log(fct_us) - _LOG_LO) / _LOG_SPAN * HIST_BINS)
    return min(b, HIST_BINS - 1)


def hist_quantile(hist: np.ndarray, q: float) -> float:
    """Quantile from a histogram: the upper edge of the bin where the
    cumulative count crosses ``q``."""
    total = int(hist.sum())
    if total == 0:
        return 0.0
    cum = np.cumsum(hist)
    idx = int(np.searchsorted(cum, q * total, side="left"))
    return float(hist_edges()[min(idx + 1, HIST_BINS)])


def hist_cdf(hist: np.ndarray) -> list:
    """FCT CDF points ``[latency_us, cum_frac]`` at the upper edge of
    every occupied histogram bin.  Shared by the lossy-fabric bench and
    the campaign renderer (linkguardian-style per-policy CDFs)."""
    total = int(hist.sum())
    if total == 0:
        return []
    edges = hist_edges()
    cum = np.cumsum(hist)
    return [[round(float(edges[i + 1]), 3),
             round(float(cum[i]) / total, 6)]
            for i in range(HIST_BINS) if hist[i]]


class ZipfianKeys:
    """Zipf(s) key draws over ``[0, nkeys)`` by inverse-CDF lookup —
    key 0 is the hottest; rank order *is* key order, so rank-frequency
    checks need no sorting."""

    def __init__(self, nkeys: int, s: float) -> None:
        if nkeys < 1:
            raise ValueError("nkeys must be positive")
        self.nkeys = nkeys
        self.s = float(s)
        weights = np.arange(1, nkeys + 1, dtype=np.float64) ** -self.s
        self._cdf = np.cumsum(weights) / weights.sum()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` keys as int64 — a pure function of the generator
        state."""
        return np.searchsorted(self._cdf, rng.random(n),
                               side="right").astype(np.int64)


class PoissonArrivals:
    """Open-loop Poisson arrival process: exponential inter-arrival
    gaps with the given mean (µs)."""

    def __init__(self, mean_gap_us: float) -> None:
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        self.mean_gap_us = float(mean_gap_us)

    def gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_gap_us, n)

    def schedule(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Absolute arrival instants (µs from client start)."""
        return np.cumsum(self.gaps(rng, n))


@dataclass
class TrafficParams:
    """One KV-traffic experiment.  Every client is a UPC thread; the
    ``nclients`` threads spread evenly over ``nnodes`` nodes."""

    nnodes: int = 8
    nclients: int = 32
    nkeys: int = 4096
    #: Two keys per bucket on average (``key % nbuckets``), so four
    #: slots never fill.
    nbuckets: int = 2048
    slots_per_bucket: int = 4
    requests: int = 20_000           # total across all clients
    #: Per-client inter-arrival mean: 70 µs leaves the GM home nodes
    #: unsaturated; around 20 µs they saturate.
    mean_gap_us: float = 70.0
    zipf_s: float = 0.9
    put_frac: float = 0.1
    seed: int = 0
    machine: str = "gm"
    #: SLO latency target in µs; 0 disables the streaming monitor.
    slo_target_us: float = 0.0
    #: SLO rolling-window width (µs of virtual time).
    slo_window_us: float = 5000.0
    #: Link-trace JSON (``LinkTrace.to_json()``); "" = healthy fabric.
    link_trace: str = ""
    #: Repair policy name (:data:`repro.faults.POLICIES`); "" = none.
    #: Requires a link trace to observe.
    repair_policy: str = ""

    def per_client(self) -> int:
        return max(1, -(-self.requests // self.nclients))


@dataclass
class TrafficResult:
    """Outcome of one traffic run."""

    #: Completed requests (``failures`` exhausted their retransmits).
    requests: int
    failures: int
    hits: int
    misses: int
    puts: int
    gets: int
    hist: np.ndarray
    hist_hit: np.ndarray
    hist_miss: np.ndarray
    #: Final virtual time (µs) and simulator events processed.
    now: float
    events: int
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Hits over the requests that went remote."""
        remote = self.hits + self.misses
        return self.hits / remote if remote else 0.0

    def quantiles(self) -> dict:
        return {
            "p50_us": hist_quantile(self.hist, 0.50),
            "p99_us": hist_quantile(self.hist, 0.99),
            "hit_p50_us": hist_quantile(self.hist_hit, 0.50),
            "hit_p99_us": hist_quantile(self.hist_hit, 0.99),
            "miss_p50_us": hist_quantile(self.hist_miss, 0.50),
            "miss_p99_us": hist_quantile(self.hist_miss, 0.99),
        }


def scenario_trace(shape: str, p: TrafficParams, trace_seed: int = 0,
                   **kw) -> LinkTrace:
    """``SCENARIO_LINKS`` independently seeded links of one scenario
    shape (:func:`repro.faults.trace.make_trace`; ``kw`` overrides its
    generator) over the traffic's whole arrival window: enough lost
    messages per run that the tail the faults cause is measured on
    hundreds of requests, not a handful."""
    kw.setdefault("horizon_us", p.per_client() * p.mean_gap_us)
    rules = {}
    for k in range(SCENARIO_LINKS):
        for rule in make_trace(shape, p.nnodes, trace_seed + k,
                               **kw).links:
            rules.setdefault((rule.src, rule.dst), rule)
    return LinkTrace(seed=trace_seed, name=shape,
                     links=tuple(rules.values()))


def _runtime_config(p: TrafficParams, events) -> RuntimeConfig:
    if p.nclients % p.nnodes:
        raise ValueError(f"nclients={p.nclients} does not spread evenly "
                         f"over nnodes={p.nnodes}")
    trace = LinkTrace.from_json(p.link_trace) if p.link_trace else None
    if trace is not None and trace.empty:
        trace = None
    if p.repair_policy and trace is None:
        raise ValueError("repair_policy needs a link trace to observe — "
                         "set link_trace too")
    return RuntimeConfig(machine=MACHINES[p.machine], nthreads=p.nclients,
                         threads_per_node=p.nclients // p.nnodes,
                         seed=p.seed, events=events, link_trace=trace,
                         repair_policy=p.repair_policy or None)


def run_kv_traffic(p: TrafficParams, *,
                   trace: bool = False) -> TrafficResult:
    """Run one traffic experiment.

    With ``p.slo_target_us > 0`` the result's ``extra["slo"]`` carries
    the SLO windows, the run summary and anomaly flags; ``trace=True``
    arms the runtime's flight recorder (``extra["events"]``).  With a
    non-empty link trace, ``extra["noisy_links"]`` lists the noisiest
    links and ``extra["policy"]`` the repair policy's decisions."""
    log = EventLog() if trace else None
    rt = Runtime(_runtime_config(p, log))
    sim = rt.sim
    n = p.per_client()
    tpn = p.nclients // p.nnodes
    zipf = ZipfianKeys(p.nkeys, p.zipf_s)
    arrivals = PoissonArrivals(p.mean_gap_us)
    dues, keys, puts = [], [], []
    for c in range(p.nclients):
        rng = seeded_rng(p.seed, _STREAM, c)
        dues.append(arrivals.schedule(rng, n))
        keys.append(zipf.draw(rng, n).tolist())
        puts.append((rng.random(n) < p.put_frac).tolist())
    locks = [rt.alloc_lock(owner_thread=(i * tpn) % p.nclients)
             for i in range(_NLOCKS)]

    hist = np.zeros(HIST_BINS, dtype=np.int64)
    hist_hit = np.zeros(HIST_BINS, dtype=np.int64)
    hist_miss = np.zeros(HIST_BINS, dtype=np.int64)
    counts = {"requests": 0, "failures": 0, "hits": 0, "misses": 0,
              "puts": 0, "gets": 0}
    slo = (SLOMonitor(p.slo_target_us, p.slo_window_us)
           if p.slo_target_us > 0 else None)
    if slo is not None and rt.policy is not None:
        record = rt.policy.on_decision

        def on_decision(d: dict) -> None:
            record(d)
            slo.observe_policy_action(d["t_us"])
        rt.policy.on_decision = on_decision
    #: Requests each client has finished, and the barrier release time
    #: the arrival schedules count from (the in-flight gauge's inputs).
    done = [0] * p.nclients
    t_start = 0.0

    def inflight(node: int, now: float) -> int:
        """Requests due but unfinished on ``node``'s clients."""
        lo = node * tpn
        return sum(int(np.searchsorted(dues[c], now - t_start,
                                       side="right")) - done[c]
                   for c in range(lo, lo + tpn))

    def client(th):
        nonlocal t_start
        store = yield from kv_create(th, p.nbuckets, p.slots_per_bucket,
                                     locks=locks)
        yield from th.barrier()
        t_start = sim.now
        c = th.id
        due_at, ks, is_put = dues[c], keys[c], puts[c]
        for i in range(n):
            due = t_start + float(due_at[i])
            if due > sim.now:
                yield from th.compute(due - sim.now)
            rdma0, am0 = th.rdma_ops, th.am_ops
            try:
                if is_put[i]:
                    yield from store.put(th, ks[i], i + 1)
                else:
                    yield from store.get(th, ks[i])
            except ReliabilityError:
                counts["failures"] += 1
            else:
                fct = sim.now - due
                b = _bin_of(fct)
                hist[b] += 1
                missed = th.am_ops > am0
                hit = not missed and th.rdma_ops > rdma0
                if missed:
                    hist_miss[b] += 1
                    counts["misses"] += 1
                elif hit:
                    hist_hit[b] += 1
                    counts["hits"] += 1
                counts["requests"] += 1
                counts["puts" if is_put[i] else "gets"] += 1
                if slo is not None:
                    slo.observe(sim.now, fct, hit=hit,
                                inflight=inflight(th.node.id, sim.now))
            done[c] += 1

    rt.spawn(client)
    run = rt.run()
    extra = {"run": run}
    if log is not None:
        extra["events"] = log
    if rt.faults is not None:
        extra["noisy_links"] = run.metrics.noisy_links()
    if rt.policy is not None:
        extra["policy"] = {
            "name": p.repair_policy,
            "decisions": rt.policy.decisions,
            "digest": decisions_digest(rt.policy.decisions),
        }
    if slo is not None:
        windows = slo.export()
        extra["slo"] = {
            "target_us": p.slo_target_us,
            "window_us": p.slo_window_us,
            "windows": windows,
            "summary": slo_summary(windows, target_us=p.slo_target_us,
                                   window_us=p.slo_window_us),
            "anomalies": detect_anomalies(
                windows, target_us=p.slo_target_us,
                window_us=p.slo_window_us),
        }
    return TrafficResult(
        requests=counts["requests"], failures=counts["failures"],
        hits=counts["hits"], misses=counts["misses"],
        puts=counts["puts"], gets=counts["gets"], hist=hist,
        hist_hit=hist_hit, hist_miss=hist_miss, now=sim.now,
        events=run.sim_events, extra=extra)
