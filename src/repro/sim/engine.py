"""Core discrete-event engine: environment, events, processes.

The design follows the classic event-callback architecture used by simpy,
stripped to what the SCC simulation needs:

* :class:`Environment` owns the event queue and the clock.
* :class:`Event` is a one-shot waitable with a value and callbacks.
* :class:`Process` wraps a generator; each ``yield`` suspends the process
  on an event, and the event's value is sent back into the generator.

All times are floats in *seconds* of simulated time.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
]


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


PENDING = object()  # sentinel: event value not yet set


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (scheduled) with either a success value or a
    failure exception; when the kernel pops it from the queue it becomes
    *processed* and its callbacks run.  Waiting on an already-processed
    event resumes the waiter immediately (at the current simulated time).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        self._processed = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        self._scheduled = True
        self._value = value
        self._ok = True
        self.env._schedule(self, delay)
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Complete this event synchronously, bypassing the event queue.

        The event becomes triggered *and* processed immediately, so a
        later ``yield`` on it resumes the waiter without a queue
        round-trip.  Only valid for events that fire at the current
        simulated time with no waiters yet registered through the
        scheduler; the fast paths in :mod:`repro.sim.resources` use it
        to avoid flooding the queue with zero-delay completions.
        """
        if self._scheduled:
            raise SimulationError("event already triggered")
        self._scheduled = True
        self._value = value
        self._ok = True
        self._run_callbacks()
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exc``."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._scheduled = True
        self._value = exc
        self._ok = False
        self.env._schedule(self, delay)
        return self

    # -- kernel internals --------------------------------------------------
    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)``; runs immediately if already processed."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._scheduled
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """Event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._scheduled = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running coroutine.  As an Event it fires when the coroutine ends.

    The coroutine's ``return`` value becomes the event value, so processes
    can be awaited: ``result = yield env.process(child())``.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self, env: "Environment", generator: Generator, name: str = ""
    ) -> None:
        if not isinstance(generator, Generator):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current time.
        init = Event(env)
        init.succeed()
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self._scheduled

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._scheduled:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is not None and self._waiting_on.callbacks is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        event = Event(self.env)
        event.fail(Interrupt(cause))
        event.add_callback(self._resume)

    # -- driving the generator ---------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(
                    event._value if event._value is not PENDING else None
                )
            else:
                exc = event._value
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # Interrupt escaped the generator: treat as normal termination
            # failure so waiters see it.
            self.fail(exc)
            return
        except BaseException as exc:
            if self.callbacks:
                self.fail(exc)
                return
            raise

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event objects (timeout, request, get, process)"
            )
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    If any child fails, this fails with the first failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Fires as soon as one child fires; value is ``(index, value)``."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf needs at least one event")
        for idx, ev in enumerate(self._events):
            ev.add_callback(lambda event, idx=idx: self._on_child(idx, event))

    def _on_child(self, idx: int, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed((idx, event._value))


class Environment:
    """Owns the clock and event queue; runs the simulation."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.event_count = 0  # processed events, for instrumentation

    @property
    def now(self) -> float:
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        self.event_count += 1
        event._run_callbacks()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the event's value when ``until`` is an Event.
        """
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired "
                        "(deadlock: a process is waiting on something nobody "
                        "will trigger)"
                    )
                self.step()
            if not stop._ok:
                raise stop._value
            return stop._value

        horizon = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        if until is not None:
            self._now = max(self._now, horizon)
        return None
