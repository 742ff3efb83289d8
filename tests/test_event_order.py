"""Event order of the queue and the kernel loop, under random interleavings.

The queue is a heap of ``(time, seq, event)`` tuples that leaves cancelled
entries in place until they surface or a compaction drops them.  Whatever
the interleaving of pushes at the current instant, later pushes, single
cancellations and bulk cancellations that force a compaction (from outside
the loop or from inside a callback that fires during :meth:`Kernel.run`),
events must fire in exactly sorted ``(time, seq)`` order, and ``len()`` /
``bool()`` must count live events only.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import EventQueue
from repro.cluster.simulator import Kernel

#: Delays of "later" pushes: few distinct values, so instants collide often.
DELAYS = (0.25, 0.5, 1.0)
#: Bulk cancellations reach the compaction floor (64 garbage entries).
BULK = st.integers(min_value=64, max_value=96)

OP = st.one_of(
    st.tuples(st.just("now")),
    st.tuples(st.just("later"), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("bulk"), BULK),
)
#: One plan per pushed event: what its callback does when it fires.
PLANS = st.lists(st.lists(OP, max_size=4), min_size=1, max_size=40)


class Model:
    """The kernel under test plus the live set a correct queue must hold."""

    def __init__(self, plans):
        self.kernel = Kernel()
        self.plans = list(plans)
        self.live = {}  # id(handle) -> (handle, (time, seq)); events are unhashable
        self.handles = []
        self.fired = []

    def push(self, time):
        plan = self.plans.pop(0) if self.plans else []
        handle = self.kernel.schedule_at(time, self.fire, plan)
        self.live[id(handle)] = (handle, (handle.time, handle.seq))
        self.handles.append(handle)

    def cancel(self, handle):
        handle.cancel()
        self.live.pop(id(handle), None)

    def apply(self, op):
        now = self.kernel.now
        if op[0] == "now":
            self.push(now)
        elif op[0] == "later":
            self.push(now + op[1])
        elif op[0] == "cancel" and self.handles:
            self.cancel(self.handles[op[1] % len(self.handles)])
        elif op[0] == "bulk":
            # Push a batch across the current instant and later ones, then
            # cancel all of it: garbage outnumbers live entries.
            first = len(self.handles)
            for i in range(op[1]):
                self.push(now + DELAYS[i % len(DELAYS)] * (i % 2))
            for handle in self.handles[first:]:
                self.cancel(handle)
        self.check_counts()

    def fire(self, plan):
        queue = self.kernel.queue
        handle, key = min(self.live.values(), key=lambda item: item[1])
        # The firing event is the earliest live one, at the kernel's clock.
        assert self.kernel.now == key[0]
        assert key not in self.fired
        self.fired.append(key)
        del self.live[id(handle)]
        assert len(queue) == len(self.live)
        for op in plan:
            self.apply(op)

    def check_counts(self):
        queue = self.kernel.queue
        assert len(queue) == len(self.live)
        assert bool(queue) == bool(self.live)


@settings(max_examples=150, deadline=None)
@given(setup=st.lists(OP, min_size=1, max_size=8), plans=PLANS, step=st.sampled_from((None, 0.3)))
def test_kernel_fires_in_time_seq_order(setup, plans, step):
    model = Model(plans)
    model.push(0.0)
    for op in setup:
        model.apply(op)
    if step is None:
        model.kernel.run()
    else:
        # Bounded runs take the loop's until_time path (peek, then pop).
        while model.kernel.queue:
            model.kernel.run(until_time=model.kernel.now + step)
    assert model.fired == sorted(model.fired)
    assert not model.live
    assert len(model.kernel.queue) == 0 and not model.kernel.queue
    assert model.kernel.stats().events_fired == len(model.fired)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("pop")),
            st.tuples(st.just("peek")),
            st.tuples(st.just("push"), st.sampled_from((0.0,) + DELAYS)),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("bulk"), BULK),
        ),
        max_size=60,
    )
)
def test_queue_pops_in_time_seq_order(ops):
    """The queue API alone (push, pop, peek_time, cancel) keeps the same order."""
    queue = EventQueue()
    live, handles, popped = {}, [], []  # live: id(handle) -> (handle, (time, seq))
    clock = 0.0

    def push(time):
        handle = queue.push(time, lambda: None)
        live[id(handle)] = (handle, (handle.time, handle.seq))
        handles.append(handle)

    def cancel(handle):
        handle.cancel()
        live.pop(id(handle), None)

    for op in ops:
        if op[0] == "pop":
            event = queue.pop()
            if live:
                expected, key = min(live.values(), key=lambda item: item[1])
                assert event is expected
                del live[id(event)]
                popped.append(key)
                clock = event.time
            else:
                assert event is None
        elif op[0] == "peek":
            expected = min(key for _, key in live.values())[0] if live else None
            assert queue.peek_time() == expected
        elif op[0] == "push":
            push(clock + op[1])
        elif op[0] == "cancel" and handles:
            cancel(handles[op[1] % len(handles)])
        elif op[0] == "bulk":
            first = len(handles)
            for i in range(op[1]):
                push(clock + DELAYS[i % len(DELAYS)] * (i % 2))
            for handle in handles[first:]:
                cancel(handle)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
    assert popped == sorted(popped)


class TestCompactionDuringRun:
    def test_bulk_cancel_inside_a_callback_keeps_order(self):
        kernel = Kernel()
        fired = []
        doomed = []

        def record(label):
            fired.append((kernel.now, label))

        def cancel_all():
            record("cancel")
            for event in doomed:
                event.cancel()
            # Fresh work at this instant and later, after the compaction.
            kernel.schedule_at(kernel.now, record, "same instant")
            kernel.schedule_at(kernel.now + 1.0, record, "later")

        kernel.schedule_at(0.0, record, "first")
        kernel.schedule_at(0.0, cancel_all)
        for i in range(100):
            doomed.append(kernel.schedule_at(0.0 if i % 2 else 2.0, record, f"doomed {i}"))
        kernel.schedule_at(0.5, record, "kept")
        kernel.run()
        assert kernel.queue.compactions >= 1
        assert fired == [
            (0.0, "first"),
            (0.0, "cancel"),
            (0.0, "same instant"),
            (0.5, "kept"),
            (1.0, "later"),
        ]
        stats = kernel.stats()
        assert stats.events_fired == 5
        assert stats.events_cancelled == 100
        assert len(kernel.queue) == 0


class TestRunUntilTime:
    def test_until_time_in_the_past_leaves_the_clock(self):
        kernel = Kernel()
        fired = []
        for time in (1.0, 2.0, 3.0):
            kernel.schedule_at(time, fired.append, time)
        assert kernel.run(until_time=1.5) == 1.5
        assert kernel.run(until_time=0.5) == 1.5
        assert kernel.now == 1.5
        assert fired == [1.0]
        # Scheduling relative to the untouched clock still works.
        kernel.schedule_after(0.25, fired.append, 1.75)
        assert kernel.run() == 3.0
        assert fired == [1.0, 1.75, 2.0, 3.0]

    def test_until_time_ahead_advances_an_idle_clock(self):
        kernel = Kernel()
        kernel.schedule_at(5.0, lambda: None)
        assert kernel.run(until_time=2.0) == 2.0
        assert kernel.now == 2.0
        with pytest.raises(ValueError):
            kernel.schedule_at(1.0, lambda: None)
