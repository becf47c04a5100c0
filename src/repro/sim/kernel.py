"""A small discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularised by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the environment advances a virtual clock from event to event.  We implement
only what the reproduction needs — one-shot events, timeouts, processes,
process interruption (used for killing speculative task duplicates), and
``AllOf``/``AnyOf`` condition events — but implement those carefully, since
the Spark scheduler, the network model and every connector protocol run on
top of this file.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed by the interrupter
    (for example the Spark scheduler passes the reason the task attempt is
    being killed).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then invokes its callbacks when the
    environment processes it.  Failed events re-raise their exception inside
    every waiting process, so errors never pass silently.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: set when a failure has been delivered to at least one waiter
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env.now, 1, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run the callback immediately so late
            # waiters (e.g. a process joining a finished process) still
            # resume.
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)
        if self._ok is False and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The timeout only *triggers* when the clock reaches it (not at
    construction), so condition events treat pending timeouts correctly.
    The value is held from construction on; ``value`` reads it only once
    the timeout has triggered.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        Event.__init__(self, env)
        self._value = value
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env.now + delay, 1, seq, self))

    def _process(self) -> None:
        if self._ok is None:
            self._ok = True
        super()._process()


class _Call:
    """A queue entry that calls ``fn(entry)`` when the clock reaches it.

    The one entry that wakes code rather than waiters: a process's
    bootstrap, a :class:`~repro.sim.cluster.Compute`'s steps and the
    network's recompute timer.  It holds its ``(time, priority, seq)`` slot
    like any event, and is counted in ``events_processed`` like one, but
    carries no callback list.  It reads as an event that succeeded with no
    value, so a process resumes from its bootstrap entry as from any event.
    """

    __slots__ = ("fn",)
    _ok = True
    _value = None

    def __init__(self, fn: Callable[["_Call"], None]):
        self.fn = fn

    def _process(self) -> None:
        self.fn(self)


class _ConditionMixin(Event):
    """Shared machinery for AllOf/AnyOf condition events."""

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        for event in self.events:
            if event.triggered:
                self._check(event)
            else:
                event.add_callback(self._check)
        self._evaluate_initial()

    def _evaluate_initial(self) -> None:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        if self._ok is None:
            self.succeed([e._value for e in self.events if e._ok])


class AllOf(_ConditionMixin):
    """Succeeds when all child events have succeeded; fails on first failure.

    It finishes at the first :meth:`_check` at which every child has
    *triggered* ok — not once every child has been *processed*, which
    would finish later and move the queue entry it makes.  A child's
    ``_ok`` never goes back, so each scan resumes where the previous one
    stopped (``_scan``) instead of starting over.
    """

    __slots__ = ("_scan",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self._scan = 0  # before the base class checks triggered children
        super().__init__(env, events)

    def _evaluate_initial(self) -> None:
        if self._ok is None and all(e.triggered for e in self.events):
            self._finish()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        events = self.events
        scan, count = self._scan, len(events)
        while scan < count and events[scan]._ok:
            scan += 1
        self._scan = scan
        if scan == count:
            self._finish()


class AnyOf(_ConditionMixin):
    """Succeeds as soon as any child event succeeds; fails on first failure."""

    __slots__ = ()

    def _evaluate_initial(self) -> None:
        if self._ok is None and any(e.triggered and e.ok for e in self.events):
            self._finish()
        elif self._ok is None and not self.events:
            self.succeed([])

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._finish()


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    A :class:`Process` is itself an :class:`Event` that triggers when the
    generator finishes (succeeding with its return value) or raises
    (failing with the exception).  Processes may be interrupted, which
    raises :class:`Interrupt` inside the generator at the current simulated
    time.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {generator!r}")
        Event.__init__(self, env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        env.stats.processes_started += 1
        # Bootstrap: resume the process at the current time.
        env._call(self._resume)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return  # interrupting a finished process is a no-op
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        self.env.stats.interrupts += 1
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = []
        interrupt_event.add_callback(self._resume)
        self.env._enqueue(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return  # e.g. an interrupt delivered after normal termination
        target = self._target
        if target is not None:
            # The event resuming us has handed out its callbacks already;
            # any other (an interrupt) leaves us waiting on the target.
            if target is not event:
                target.remove_callback(self._resume)
            self._target = None
        self.env._active_process = self
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                # Deliver failures (including interrupts) into the generator.
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None
        if not isinstance(result, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded a non-event: {result!r}"
            )
            self._generator.close()
            self.fail(exc)
            return
        self._target = result
        callbacks = result.callbacks
        if callbacks is None:
            result.add_callback(self._resume)  # processed: resumes at once
        else:
            callbacks.append(self._resume)


class KernelStats:
    """Always-on counters of kernel scheduling activity.

    Plain integer bumps — cheap enough to leave enabled unconditionally,
    and surfaced through ``telemetry.MetricsSnapshot`` when a registry is
    bound to the environment.
    """

    __slots__ = ("events_processed", "processes_started", "interrupts")

    def __init__(self):
        self.events_processed = 0
        self.processes_started = 0
        self.interrupts = 0

    def as_dict(self) -> dict:
        return {
            "events_processed": self.events_processed,
            "processes_started": self.processes_started,
            "interrupts": self.interrupts,
        }

    def __repr__(self) -> str:
        return (
            f"KernelStats(events={self.events_processed}, "
            f"processes={self.processes_started}, interrupts={self.interrupts})"
        )


class Environment:
    """The simulation environment: the clock and the event queue.

    ``now`` is a plain attribute: read it, never assign it.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now = float(initial_time)
        #: a heap of ``(time, priority, seq, entry)``; ``seq`` is unique, so
        #: the tuple comparison is settled in C before it reaches the entry
        #: (an :class:`Event` or a :class:`_Call`).  ``Timeout``,
        #: ``Event.succeed`` and :meth:`_call` push onto it directly.
        self._queue: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.stats = KernelStats()

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, time: float, fn: Callable[[], Any]) -> Timeout:
        """Invoke ``fn()`` when the clock reaches ``time`` (absolute).

        The hook the chaos layer uses for one-shot scheduled injections
        that need no process of their own.  Returns the underlying
        timeout event so callers may still wait on it.
        """
        if time < self.now:
            raise SimulationError(
                f"call_at({time}) is in the past (now {self.now})"
            )
        event = self.timeout(time - self.now)
        event.add_callback(lambda _event: fn())
        return event

    # -- scheduling ---------------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, priority, seq, event))

    def _call(self, fn: Callable[[_Call], None], delay: float = 0.0) -> _Call:
        """Queue a :class:`_Call` of ``fn`` ``delay`` from now; returns it."""
        entry = _Call(fn)
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, 1, seq, entry))
        return entry

    def step(self) -> None:
        """Process the next scheduled entry (one loop turn of :meth:`run`)."""
        if not self._queue:
            raise SimulationError("attempt to step an exhausted simulation")
        self.now, _, _, entry = heappop(self._queue)
        self.stats.events_processed += 1
        entry._process()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when exhausted."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        the clock reaches it), or an :class:`Event` (run until it triggers,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise SimulationError("cannot run backwards in time")

        # ``step()`` and ``peek()`` written out in place: each turn tests
        # ``triggered`` and the next entry's time, pops, counts, processes.
        queue, stats = self._queue, self.stats
        while queue:
            if stop_event is not None and stop_event._ok is not None:
                break
            if queue[0][0] > stop_time:
                self.now = stop_time
                return None
            self.now, _, _, entry = heappop(queue)
            stats.events_processed += 1
            entry._process()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            stop_event._defused = True
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if until is not None and stop_time < float("inf"):
            self.now = max(self.now, stop_time) if self._queue else stop_time
        return None
