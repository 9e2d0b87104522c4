"""``RuntimeMetrics.summary()`` must be a pure read.

A regression that mutates state while summarizing would silently skew
every table the harness renders.
"""

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.metrics import RuntimeMetrics
from repro.service import kv_create


def test_summary_idempotent_on_fresh_metrics():
    m = RuntimeMetrics()
    assert m.summary() == m.summary()


def test_summary_idempotent_after_real_run():
    def kernel(th):
        store = yield from kv_create(th, nbuckets=8, slots_per_bucket=2)
        yield from store.put(th, th.id, th.id + 1)
        yield from th.barrier()
        yield from store.get(th, (th.id + 3) % th.nthreads)
        yield from th.barrier()

    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                               threads_per_node=2))
    rt.spawn(kernel)
    rt.run()
    first = rt.metrics.summary()
    second = rt.metrics.summary()
    assert first == second
    # The percentile estimators behind the summary must not have been
    # fed by the summary call itself.
    assert rt.metrics.get_remote_digest.p50.count == \
        rt.metrics.get_remote_digest.p50.count
