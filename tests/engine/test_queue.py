"""Tests for repro.engine.queue — deterministic ordering."""

import pytest

from repro.actions.plan import ActionPlan
from repro.engine.events import (
    ActionApplyEvent,
    Event,
    FlushDeadlineEvent,
    TimelineSampleEvent,
)
from repro.engine.queue import EventQueue
from repro.errors import UsageError, ValidationError


def action_apply(time):
    return ActionApplyEvent(time, ActionPlan([]))


#: One constructor per heap priority class, lowest class first; the base
#: Event carries TRACE_RECORD.
EVENT_KINDS = [
    TimelineSampleEvent,
    Event,
    FlushDeadlineEvent,
    action_apply,
]


def drain(queue):
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append(event)


class TestOrdering:
    def test_time_order_dominates(self):
        queue = EventQueue()
        late = queue.push(TimelineSampleEvent(20.0))
        early = queue.push(FlushDeadlineEvent(10.0))
        assert drain(queue) == [early, late]

    def test_priority_class_breaks_time_ties(self):
        queue = EventQueue()
        # Push in reverse class order; pops must follow the documented
        # class order regardless.
        events = [kind(50.0) for kind in reversed(EVENT_KINDS)]
        for event in events:
            queue.push(event)
        assert drain(queue) == list(reversed(events))

    def test_fifo_within_same_time_and_class(self):
        queue = EventQueue()
        first = queue.push(FlushDeadlineEvent(50.0))
        second = queue.push(FlushDeadlineEvent(50.0))
        assert drain(queue) == [first, second]

    def test_peek_key_matches_next_pop(self):
        queue = EventQueue()
        queue.push(FlushDeadlineEvent(50.0))
        queue.push(TimelineSampleEvent(50.0))
        key = queue.peek_key()
        event = queue.pop()
        assert key[:2] == (event.time, event.priority)
        assert isinstance(event, TimelineSampleEvent)


class TestPush:
    def test_double_push_rejected(self):
        queue = EventQueue()
        event = queue.push(FlushDeadlineEvent(10.0))
        with pytest.raises(UsageError):
            queue.push(event)
        assert len(queue) == 1

    def test_popped_event_may_be_pushed_again(self):
        queue = EventQueue()
        event = queue.push(FlushDeadlineEvent(10.0))
        assert queue.pop() is event
        assert len(queue) == 0
        assert queue.peek_key() is None
        assert queue.pop() is None
        queue.push(event)
        assert drain(queue) == [event]


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            TimelineSampleEvent(-1.0)

    def test_base_event_fire_is_abstract(self):
        queue = EventQueue()
        event = queue.push(Event(1.0))
        with pytest.raises(NotImplementedError):
            queue.pop().fire(None)

    def test_repr_shows_time_and_cancel_state(self):
        event = TimelineSampleEvent(5.0)
        assert "TimelineSampleEvent" in repr(event)
        assert "t=5.0" in repr(event)
