"""The outside-in span tracer: self-time accounting, generator
forwarding, and invisibility to the simulated results."""

import pytest

from spantrace import SpanTracer
from layers import TARGETS, layer_of_code, traced

from repro.faults.reliability import ReliabilityError
from repro.network import GM_MARENOSTRUM
from repro.network.transport import Transport
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.sim.errors import ProcessKilled
from repro.workloads.dis.field import FieldParams, run_field
from repro.workloads.dis.pointer import PointerParams, run_pointer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_nested_function_spans_subtract_children():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def inner():
        clock.tick(2.0)

    def outer():
        clock.tick(1.0)
        inner_w()
        clock.tick(3.0)
        inner_w()

    inner_w = tracer.wrap(inner, "b")
    tracer.wrap(outer, "a")()
    assert tracer.self_s == {"a": 4.0, "b": 4.0}
    assert tracer.calls == {"a": 1, "b": 2}
    assert tracer.depth == 0


def test_same_layer_nesting_counts_time_once():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def leaf():
        clock.tick(1.0)

    def mid():
        clock.tick(1.0)
        leaf_w()

    leaf_w = tracer.wrap(leaf, "x")
    tracer.wrap(mid, "x")()
    assert tracer.self_s == {"x": 2.0}
    assert tracer.shares() == {"x": 1.0}


def test_suspended_generator_time_is_not_charged():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def inner():
        clock.tick(1.0)
        x = yield "event"
        clock.tick(2.0)
        return x * 2

    def outer():
        clock.tick(0.5)
        v = yield from inner_w()
        clock.tick(0.25)
        return v

    inner_w = tracer.wrap(inner, "inner")
    gen = tracer.wrap(outer, "outer")()
    assert gen.send(None) == "event"
    clock.tick(100.0)       # suspended: somebody else's time
    with pytest.raises(StopIteration) as stop:
        gen.send(5)
    assert stop.value.value == 10
    assert tracer.self_s == {"outer": 0.75, "inner": 3.0}
    assert tracer.depth == 0


def test_throw_and_close_reach_the_wrapped_generator():
    tracer = SpanTracer()
    seen = []

    def inner():
        try:
            yield 1
        except ValueError as err:
            seen.append(("caught", str(err)))
        try:
            yield 2
        finally:
            seen.append("closed")

    def outer():
        yield from inner_w()

    inner_w = tracer.wrap(inner, "inner")
    gen = tracer.wrap(outer, "outer")()
    assert next(gen) == 1
    assert gen.throw(ValueError("boom")) == 2
    gen.close()
    assert seen == [("caught", "boom"), "closed"]
    assert tracer.depth == 0


def test_uncaught_throw_propagates_and_closes_spans():
    tracer = SpanTracer()

    def inner():
        yield 1
        yield 2

    gen = tracer.wrap(inner, "inner")()
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("k"))
    assert tracer.depth == 0
    with pytest.raises(StopIteration):
        next(gen)


def _two_node_runtime():
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                                 threads_per_node=1))


def test_reliability_error_thrown_into_wrapped_transport_coroutine():
    tracer = SpanTracer()
    with tracer.installed([(Transport, "default_get", "network.transport")]):
        rt = _two_node_runtime()
        src, dst = rt.cluster.nodes
        gen = rt.cluster.transport.default_get(src, dst, 8, None)
        assert gen.__name__ == "default_get"
        gen.send(None)
        with pytest.raises(ReliabilityError) as err:
            gen.throw(ReliabilityError("retry budget exhausted",
                                       src=src.id, dst=dst.id))
    assert err.value.link == (src.id, dst.id)
    assert tracer.calls["network.transport"] == 1
    assert tracer.self_s["network.transport"] > 0.0
    assert tracer.depth == 0
    assert "default_get" in vars(Transport)
    assert not hasattr(vars(Transport)["default_get"], "__wrapped__")


def test_kill_interrupts_a_process_inside_a_wrapped_transport_coroutine():
    tracer = SpanTracer()
    with traced(tracer):
        rt = _two_node_runtime()
        src, dst = rt.cluster.nodes
        proc = rt.sim.process(rt.cluster.transport.default_get(src, dst, 8,
                                                               None))
        rt.sim.run(until=0.5)
        proc.kill("test interrupt")
        rt.sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, ProcessKilled)
    assert tracer.depth == 0


def test_layer_of_code_maps_modules_to_layers():
    assert layer_of_code("/x/src/repro/sim/resource.py") == "sim.resource"
    assert layer_of_code("/x/src/repro/sim/process.py") == "sim"
    assert layer_of_code("/x/src/repro/runtime/runtime.py") == \
        "runtime.thread"
    assert layer_of_code("/x/src/repro/memory/pinning.py") == "core.pinned"
    assert layer_of_code("/x/src/repro/network/node.py") == \
        "network.transport"
    assert layer_of_code("/x/perfbench/workloads.py") is None


def test_every_target_is_restored():
    before = {(cls, name): vars(cls)[name] for cls, name, _ in TARGETS}
    with traced(SpanTracer()):
        pass
    assert before == {(cls, name): vars(cls)[name]
                      for cls, name, _ in TARGETS}


def _simulated(result):
    run = result.run
    cs = run.cache_stats
    return (run.elapsed_us, run.sim_events, cs.hits, cs.misses,
            cs.evictions, run.metrics.summary()["rdma_gets"], result.check)


@pytest.mark.parametrize("runner,params", [
    (run_pointer, PointerParams(machine=GM_MARENOSTRUM, nthreads=32,
                                nelems=1024, hops=8, seed=3)),
    (run_field, FieldParams(machine=GM_MARENOSTRUM, nthreads=32,
                            nelems=2048, ntokens=3, seed=3)),
])
def test_small_kernel_is_identical_with_tracer_on_and_off(runner, params):
    plain = _simulated(runner(params))
    tracer = SpanTracer()
    with traced(tracer):
        traced_result = _simulated(runner(params))
    assert traced_result == plain
    assert tracer.depth == 0
    assert tracer.self_s["sim"] > 0 and tracer.self_s["workloads"] > 0
    assert tracer.calls["runtime.ops"] > 0
