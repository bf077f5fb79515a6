"""Span arithmetic and attribute restoration of the traced run."""

import pytest

import layers
from spans import SpanTracer, Target, installed


class Clock:
    """A host clock the test advances by hand (integer nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


CLOCK = Clock()


class Box:
    def leaf(self):
        CLOCK.tick(5)
        return 7

    def inner(self):
        CLOCK.tick(3)
        got = yield "inner-1"
        CLOCK.tick(4)
        return got * 2

    def outer(self):
        CLOCK.tick(10)
        value = yield from self.inner()
        CLOCK.tick(2)
        return value + self.leaf()

    def catcher(self):
        try:
            yield "wait"
        except ValueError as exc:
            CLOCK.tick(6)
            return "caught %s" % exc

    def raiser(self):
        CLOCK.tick(1)
        yield "wait"
        CLOCK.tick(1)

    def delegating(self, which):
        CLOCK.tick(1)
        return (yield from getattr(self, which)())


def box_targets():
    return [Target("outer", Box, "outer"), Target("inner", Box, "inner"),
            Target("leaf", Box, "leaf"), Target("catch", Box, "catcher"),
            Target("raise", Box, "raiser"), Target("delegate", Box, "delegating")]


def stat(tracer, layer):
    (found,) = [s for s in tracer.stats.values() if s.layer == layer]
    return found


def test_nested_generators_split_self_time_and_pass_return_values():
    tracer = SpanTracer(clock=CLOCK)
    with installed(tracer, box_targets()):
        gen = Box().outer()
        assert gen.send(None) == "inner-1"
        CLOCK.tick(100)  # suspended: charged to nobody
        with pytest.raises(StopIteration) as stop:
            gen.send(5)
    assert stop.value.value == 5 * 2 + 7
    outer, inner, leaf = (stat(tracer, n) for n in ("outer", "inner", "leaf"))
    # outer: 10 + 2 own ticks; its resumes last 13 and 11 (inner 3, then
    # inner 4 and leaf 5 inside the second one).
    assert (outer.calls, outer.spans, outer.total_ns, outer.self_ns) == (1, 2, 24, 12)
    assert (inner.calls, inner.spans, inner.total_ns, inner.self_ns) == (1, 2, 7, 7)
    assert (leaf.calls, leaf.spans, leaf.self_ns) == (1, 1, 5)
    assert tracer._stack == []


def test_exception_thrown_into_wrapped_generator_is_forwarded():
    tracer = SpanTracer(clock=CLOCK)
    with installed(tracer, box_targets()):
        gen = Box().delegating("catcher")
        assert gen.send(None) == "wait"
        with pytest.raises(StopIteration) as stop:
            gen.throw(ValueError("boom"))
    assert stop.value.value == "caught boom"
    catch = stat(tracer, "catch")
    assert (catch.spans, catch.self_ns) == (2, 6)
    assert stat(tracer, "delegate").self_ns == 1
    assert tracer._stack == []


def test_uncaught_exception_closes_every_span():
    tracer = SpanTracer(clock=CLOCK)
    with installed(tracer, box_targets()):
        gen = Box().delegating("raiser")
        gen.send(None)
        with pytest.raises(KeyError):
            gen.throw(KeyError("lost"))
    assert stat(tracer, "raise").spans == 2
    assert tracer._stack == []


def test_close_reaches_the_wrapped_generator_and_names_are_kept():
    closed = []

    class Holder:
        def body(self):
            try:
                yield "held"
            finally:
                closed.append(True)

    tracer = SpanTracer(clock=CLOCK)
    with installed(tracer, [Target("hold", Holder, "body")]):
        gen = Holder().body()
        assert gen.__name__ == "body"
        gen.send(None)
        gen.close()
    assert closed == [True]


def test_request_ids_follow_the_outermost_call_under_a_root():
    class Kernel:
        def run(self, gen, value):
            gen.send(None)
            try:
                gen.send(value)
            except StopIteration:
                pass

    tracer = SpanTracer(clock=CLOCK)
    with installed(tracer, box_targets() + [Target("root", Kernel, "run", root=True)]):
        Kernel().run(Box().outer(), 1)
    by_id = {r[3]: r for r in tracer.records}
    root_id = [r[3] for r in tracer.records if r[0] == "Kernel.run"][0]
    outer_spans = [r for r in tracer.records if r[0] == "Box.outer"]
    request_ids = {r[5] for r in tracer.records if r[0] != "Kernel.run"}
    assert len(outer_spans) == 2 and len(request_ids) == 1
    assert all(by_id[r[4]][0] == "Kernel.run" for r in outer_spans)
    assert request_ids != {root_id}


def test_span_records_are_bounded():
    tracer = SpanTracer(clock=CLOCK, max_records=3)
    with installed(tracer, box_targets()):
        for _ in range(5):
            Box().leaf()
    assert len(tracer.records) == 3 and tracer.dropped == 2


def _class_attributes():
    owners = {t.owner for t in layers.targets()}
    return {(owner, attr): value for owner in owners
            for attr, value in owner.__dict__.items()}


def test_wrapping_restores_every_patched_attribute():
    from repro.core.framework import P2KVS

    before = _class_attributes()
    original_put = P2KVS.__dict__["put"]
    with pytest.raises(RuntimeError):
        with installed(SpanTracer(), layers.targets()):
            # The alias is wrapped along with the function it names.
            assert P2KVS.__dict__["update"] is P2KVS.__dict__["put"]
            assert P2KVS.__dict__["put"] is not original_put
            raise RuntimeError("leave the block early")
    after = _class_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
