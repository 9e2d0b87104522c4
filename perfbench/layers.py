"""The program's layers and the entry points the traced pass wraps.

Each layer is named after the package or module that implements it.
A span opens at each public entry point below; the time the event core
spends resuming a simulated process is charged to the layer whose
module defined the process body; everything else inside
:meth:`Runtime.run` that no layer claims is the ``workloads`` residual
(kernel bodies and their NumPy work).
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from typing import Iterator, List, Optional

from spantrace import SpanTracer, Target, patched

from repro.core.address_cache import RemoteAddressCache
from repro.core.pinned_table import PinnedAddressTable
from repro.faults.health import HealthTracker
from repro.faults.injector import FaultInjector
from repro.faults.policy import PolicyEngine
from repro.network.progress import InterruptProgress, PollingProgress
from repro.network.transport import Transport
from repro.runtime.bulk import BulkEngine
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.ops import OpEngine
from repro.runtime.runtime import Runtime
from repro.runtime.thread import UPCThread
from repro.service.kvstore import KVStore
from repro.sim.resource import Resource
from repro.sim.simulator import Simulator

#: Every layer the traced pass reports, in report order.
LAYERS = (
    "sim", "sim.resource", "runtime.thread", "runtime.ops", "runtime.bulk",
    "runtime.metrics", "core.cache", "core.pinned", "network.transport",
    "network.progress", "service", "faults", "workloads",
)

_THREAD_API = ("get", "put", "put_strict", "get_nb", "put_nb", "wait_all",
               "gather", "memget", "memput", "memget_v", "memput_v",
               "fence", "barrier", "barrier_notify", "barrier_wait", "lock",
               "unlock", "compute", "poll", "all_alloc", "all_free",
               "all_reduce", "all_broadcast")

#: (class, entry point, layer) for every wrapped public entry point.
TARGETS: List[Target] = [
    (Simulator, "run", "sim"),
    *((Resource, n, "sim.resource")
      for n in ("acquire", "release", "try_acquire")),
    *((UPCThread, n, "runtime.thread") for n in _THREAD_API),
    *((OpEngine, n, "runtime.ops")
      for n in ("get", "put", "bulk_get", "bulk_put")),
    *((BulkEngine, n, "runtime.bulk") for n in ("get_spans", "put_spans")),
    *((RuntimeMetrics, n, "runtime.metrics")
      for n in ("record_get", "record_put")),
    *((RemoteAddressCache, n, "core.cache")
      for n in ("lookup", "insert", "invalidate_entry", "invalidate_handle",
                "invalidate_all")),
    *((PinnedAddressTable, n, "core.pinned")
      for n in ("register", "is_pinned", "lookup_phys", "is_unpinnable",
                "mark_unpinnable", "unregister_handle")),
    *((Transport, n, "network.transport")
      for n in ("default_get", "default_put", "rdma_get", "rdma_put",
                "am_oneway")),
    (PollingProgress, "service", "network.progress"),
    (PollingProgress, "poll", "network.progress"),
    (InterruptProgress, "service", "network.progress"),
    *((KVStore, n, "service")
      for n in ("get", "put", "delete", "multi_get")),
    *((FaultInjector, n, "faults")
      for n in ("am_fate", "rdma_fate", "nic_stall", "handler_stall",
                "pin_allowed")),
    (PolicyEngine, "mode_of", "faults"),
    (HealthTracker, "record", "faults"),
]

#: Module path (below the ``repro`` package) -> layer, first match wins.
_MODULE_LAYERS = (
    ("sim/resource.py", "sim.resource"), ("sim/", "sim"),
    ("runtime/ops.py", "runtime.ops"), ("runtime/bulk.py", "runtime.bulk"),
    ("runtime/metrics.py", "runtime.metrics"), ("runtime/", "runtime.thread"),
    ("core/address_cache.py", "core.cache"),
    ("core/pinned_table.py", "core.pinned"), ("memory/", "core.pinned"),
    ("network/progress.py", "network.progress"),
    ("network/", "network.transport"), ("service/", "service"),
    ("faults/", "faults"), ("workloads/", "workloads"),
)


def layer_of_code(filename: str) -> Optional[str]:
    """The layer whose module defined a code object, if any."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rel = path[at + len(marker):]
    for prefix, layer in _MODULE_LAYERS:
        if rel.startswith(prefix):
            return layer
    return None


@contextmanager
def traced(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Install every layer's spans for the duration of the block.

    Besides :data:`TARGETS`: :meth:`Runtime.run` is the root span
    (``workloads``), each spawned UPC program runs in a ``workloads``
    span, and every simulated process body runs in its module's layer.
    """
    run, spawn = Runtime.run, Runtime.spawn
    process = Simulator.process

    def traced_run(rt, *args, **kwargs):
        span = tracer.enter("workloads")
        try:
            return run(rt, *args, **kwargs)
        finally:
            tracer.exit(span)

    def traced_spawn(rt, program, *args):
        def program_in_span(th, *a):
            return tracer.proxy(program(th, *a), "workloads")
        return spawn(rt, program_in_span, *args)

    def traced_process(sim, gen, name=""):
        code = getattr(gen, "gi_code", None)
        layer = layer_of_code(code.co_filename) if code is not None else None
        if layer is not None:
            gen = tracer.proxy(gen, layer)
        return process(sim, gen, name)

    with ExitStack() as stack:
        stack.enter_context(tracer.installed(TARGETS))
        for cls, name, fn in ((Runtime, "run", traced_run),
                              (Runtime, "spawn", traced_spawn),
                              (Simulator, "process", traced_process)):
            stack.enter_context(patched(cls, name, fn))
        yield tracer
