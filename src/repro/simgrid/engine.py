"""Discrete-event simulation engine.

This is the substrate standing in for the paper's physical testbed: a small
but real discrete-event simulator with

* a global event queue and simulated clock (:class:`Simulator`),
* cooperative **processes** written as Python generators that ``yield``
  simulation primitives (:class:`Hold`, :class:`Acquire`, :class:`Release`,
  :class:`Put`, :class:`Get`, :class:`WaitFor`),
* exclusive **resources** with FIFO queueing (used to model single-port
  network interfaces — the paper's §2.3 hardware model),
* **mailboxes** for message passing between processes (used by the
  simulated MPI layer), and
* **events** for one-shot signalling.

Determinism: the queue orders by ``(time, sequence)`` where ``sequence`` is
a global insertion counter, so equal-time events fire in creation order and
every run of the same program is bit-identical.

Fault support (used by :mod:`repro.simgrid.faults`): a process can be
:meth:`killed <Process.kill>` from outside the generator — it releases every
resource it holds, leaves any wait queue, and its pending wake-ups become
no-ops — and :class:`Get` accepts a ``timeout`` after which the blocked
process is resumed with the :data:`TIMEOUT` sentinel instead of a message.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.obs.events import (
    PROCESS_END,
    PROCESS_KILL,
    PROCESS_START,
    RECV_TIMEOUT,
    EventBus,
)

__all__ = [
    "Simulator",
    "Process",
    "SimEvent",
    "Resource",
    "Mailbox",
    "Hold",
    "Acquire",
    "Release",
    "Put",
    "Get",
    "WaitFor",
    "DeadlockError",
    "TIMEOUT",
]


class DeadlockError(RuntimeError):
    """Raised when the event queue drains while processes are still blocked."""


class _TimeoutSentinel:
    """Singleton resume value for a :class:`Get` whose timeout expired."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMEOUT"


#: Value a process receives from ``yield Get(mbox, timeout)`` on expiry.
TIMEOUT = _TimeoutSentinel()


class SimPrimitive:
    """Base class for everything a process may ``yield``."""

    def start(self, sim: "Simulator", process: "Process") -> None:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Hold(SimPrimitive):
    """Suspend the process for ``duration`` simulated seconds."""

    duration: float

    def start(self, sim: "Simulator", process: "Process") -> None:
        if self.duration < 0:
            raise ValueError(f"cannot hold for negative duration {self.duration}")
        sim.schedule(self.duration, process._resume, None)


@dataclass(frozen=True, slots=True)
class Acquire(SimPrimitive):
    """Block until the resource is granted to this process (FIFO)."""

    resource: "Resource"

    def start(self, sim: "Simulator", process: "Process") -> None:
        self.resource._request(process)


@dataclass(frozen=True, slots=True)
class Release(SimPrimitive):
    """Release a previously acquired resource; resumes immediately."""

    resource: "Resource"

    def start(self, sim: "Simulator", process: "Process") -> None:
        self.resource._release(process)
        sim.schedule(0.0, process._resume, None)


@dataclass(frozen=True, slots=True)
class Put(SimPrimitive):
    """Deposit a message into a mailbox; resumes immediately."""

    mailbox: "Mailbox"
    message: Any

    def start(self, sim: "Simulator", process: "Process") -> None:
        self.mailbox._put(self.message)
        sim.schedule(0.0, process._resume, None)


@dataclass(frozen=True, slots=True)
class Get(SimPrimitive):
    """Block until a message is available; the message becomes the yield value.

    With a finite ``timeout`` (simulated seconds) the process is resumed
    with :data:`TIMEOUT` instead if no message arrived in time.
    """

    mailbox: "Mailbox"
    timeout: Optional[float] = None

    def start(self, sim: "Simulator", process: "Process") -> None:
        self.mailbox._get(process, self.timeout)


@dataclass(frozen=True, slots=True)
class WaitFor(SimPrimitive):
    """Block until the event is set; the event's value becomes the yield value."""

    event: "SimEvent"

    def start(self, sim: "Simulator", process: "Process") -> None:
        self.event._wait(process)


class SimEvent:
    """One-shot signalling event carrying an optional value."""

    __slots__ = ("sim", "_set", "value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.sim = sim
        self.name = name
        self._set = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        """Fire the event, waking all waiters at the current time."""
        if self._set:
            raise RuntimeError(f"event {self.name!r} set twice")
        self._set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule(0.0, proc._resume, value)

    def _wait(self, process: "Process") -> None:
        if self._set:
            self.sim.schedule(0.0, process._resume, self.value)
        else:
            self._waiters.append(process)
            process._blocked_on = self


class Resource:
    """Resource with FIFO hand-off and a fixed capacity.

    With ``capacity=1`` (default) it models a single-port NIC: one transfer
    at a time, queued requests served in request order — exactly the
    paper's root behaviour of serving destination processors "in turn".
    Larger capacities model k-port interfaces or shared backbones admitting
    ``k`` concurrent flows.
    """

    __slots__ = ("sim", "name", "capacity", "_holders", "_queue")

    def __init__(self, sim: "Simulator", name: str = "resource", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._holders: List["Process"] = []
        self._queue: Deque["Process"] = deque()

    @property
    def holder(self) -> Optional["Process"]:
        """The current holder (capacity-1 resources only)."""
        return self._holders[0] if self._holders else None

    @property
    def holders(self) -> Tuple["Process", ...]:
        return tuple(self._holders)

    @property
    def in_use(self) -> int:
        return len(self._holders)

    def _request(self, process: "Process") -> None:
        if len(self._holders) < self.capacity:
            self._holders.append(process)
            process._held.append(self)
            self.sim.schedule(0.0, process._resume, None)
        else:
            self._queue.append(process)
            process._blocked_on = self

    def _release(self, process: "Process") -> None:
        if process not in self._holders:
            names = [h.name for h in self._holders]
            raise RuntimeError(
                f"{process.name!r} released {self.name!r} held by {names!r}"
            )
        self._holders.remove(process)
        if self in process._held:
            process._held.remove(self)
        # Hand off to the next *live* waiter; granting to a killed process
        # would leave the resource held by a corpse forever.
        while self._queue:
            nxt = self._queue.popleft()
            if nxt._killed or nxt.done.is_set:
                continue
            self._holders.append(nxt)
            nxt._held.append(self)
            self.sim.schedule(0.0, nxt._resume, None)
            break


class _GetWait:
    """One pending receive; a fresh identity per wait so a stale timeout
    event can never expire a *later* wait by the same process."""

    __slots__ = ("process", "timer")

    def __init__(self, process: "Process"):
        self.process = process
        self.timer: Optional[_QueuedEvent] = None


class Mailbox:
    """FIFO message channel between processes.

    Both messages and waiting receivers are served strictly in arrival
    (FIFO) order — the fairness guarantee :meth:`RankContext.recv_any
    <repro.mpi.communicator.RankContext.recv_any>` documents.
    """

    __slots__ = ("sim", "name", "_messages", "_getters")

    def __init__(self, sim: "Simulator", name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._messages: Deque[Any] = deque()
        self._getters: Deque[_GetWait] = deque()

    def __len__(self) -> int:
        return len(self._messages)

    def _put(self, message: Any) -> None:
        while self._getters:
            wait = self._getters.popleft()
            if wait.timer is not None:
                self.sim.cancel(wait.timer)
            proc = wait.process
            if proc._killed or proc.done.is_set:
                continue  # dead receiver; keep the message for a live one
            self.sim.schedule(0.0, proc._resume, message)
            return
        self._messages.append(message)

    def _get(self, process: "Process", timeout: Optional[float] = None) -> None:
        if self._messages:
            self.sim.schedule(0.0, process._resume, self._messages.popleft())
            return
        wait = _GetWait(process)
        self._getters.append(wait)
        process._blocked_on = self
        if timeout is not None:
            if timeout < 0:
                raise ValueError(f"negative receive timeout: {timeout}")
            wait.timer = self.sim.schedule(timeout, self._expire, wait)

    def _expire(self, wait: _GetWait) -> None:
        """Timeout event: resume the waiter with TIMEOUT if still queued."""
        for queued in self._getters:
            if queued is wait:
                self._getters.remove(wait)
                if not (wait.process._killed or wait.process.done.is_set):
                    self.sim.bus.emit(
                        RECV_TIMEOUT, self.sim.now, wait.process.name,
                        mailbox=self.name,
                    )
                    self.sim.schedule(0.0, wait.process._resume, TIMEOUT)
                return


class Process:
    """A simulated process driving a generator of primitives.

    The generator receives the yield's result (e.g. the message for
    :class:`Get`) back from ``yield``.  When it returns, ``done`` is set
    with the generator's return value.
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "done",
        "_blocked",
        "_killed",
        "failure",
        "_held",
        "_blocked_on",
        "_last_prim",
    )

    def __init__(self, sim: "Simulator", name: str, gen: Generator):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done = SimEvent(sim, f"{name}.done")
        self._blocked = False
        self._killed = False
        #: The exception this process was killed with, if any.
        self.failure: Optional[BaseException] = None
        #: Resources currently held (for forced release on kill).
        self._held: List["Resource"] = []
        #: The resource/mailbox/event this process is queued on, if blocked.
        self._blocked_on: Any = None
        #: The most recent primitive yielded (for deadlock diagnostics).
        self._last_prim: Optional[SimPrimitive] = None
        sim._processes.append(self)
        sim.bus.emit(PROCESS_START, sim.now, name)
        sim.schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        return not self.done.is_set

    @property
    def killed(self) -> bool:
        return self._killed

    def _resume(self, value: Any) -> None:
        if self._killed or self.done.is_set:
            return  # stale wake-up (timer, resource grant, ...) of a dead process
        self._blocked = False
        self._blocked_on = None
        try:
            prim = self._gen.send(value)
        except StopIteration as stop:
            self.sim.bus.emit(PROCESS_END, self.sim.now, self.name)
            self.done.set(stop.value)
            return
        if not isinstance(prim, SimPrimitive):
            raise TypeError(
                f"process {self.name!r} yielded {prim!r}; expected a simulation "
                f"primitive (Hold/Acquire/Release/Put/Get/WaitFor)"
            )
        self._blocked = True
        self._last_prim = prim
        prim.start(self.sim, self)

    def kill(self, failure: Optional[BaseException] = None) -> None:
        """Terminate this process from outside (e.g. its host crashed).

        Releases every resource the process holds (so in-flight transfers
        by *other* processes are not wedged), removes it from any resource
        wait queue, closes the generator (running its ``finally`` blocks),
        and fires ``done`` with ``failure`` as the value.  Idempotent; a
        no-op on a finished process.
        """
        if self._killed or self.done.is_set:
            return
        self._killed = True
        self.failure = failure
        self.sim.bus.emit(
            PROCESS_KILL,
            self.sim.now,
            self.name,
            reason=repr(failure) if failure is not None else None,
        )
        blocked_on = self._blocked_on
        if isinstance(blocked_on, Resource) and self in blocked_on._queue:
            blocked_on._queue.remove(self)
        elif isinstance(blocked_on, Mailbox):
            for wait in [w for w in blocked_on._getters if w.process is self]:
                blocked_on._getters.remove(wait)
                if wait.timer is not None:
                    self.sim.cancel(wait.timer)
        for res in list(self._held):
            res._release(self)
        try:
            self._gen.close()
        finally:
            self.done.set(failure)

    def waiting_description(self) -> str:
        """Human-readable 'where is this process stuck' for deadlock reports."""
        prim = self._last_prim
        if prim is None:
            return "never ran"
        return f"last yielded {describe_primitive(prim)}"

    def __repr__(self) -> str:
        if self._killed:
            state = "killed"
        elif self.done.is_set:
            state = "done"
        else:
            state = "blocked" if self._blocked else "ready"
        return f"Process({self.name!r}, {state})"


def describe_primitive(prim: SimPrimitive) -> str:
    """Short description of a primitive for diagnostics."""
    if isinstance(prim, Hold):
        return f"Hold({prim.duration:g})"
    if isinstance(prim, Acquire):
        return f"Acquire({prim.resource.name})"
    if isinstance(prim, Release):
        return f"Release({prim.resource.name})"
    if isinstance(prim, Get):
        if prim.timeout is not None:
            return f"Get({prim.mailbox.name}, timeout={prim.timeout:g})"
        return f"Get({prim.mailbox.name})"
    if isinstance(prim, Put):
        return f"Put({prim.mailbox.name})"
    if isinstance(prim, WaitFor):
        return f"WaitFor({prim.event.name})"
    return repr(prim)


@dataclass(slots=True)
class _QueuedEvent:
    """A scheduled call; the heap orders it by its ``(time, seq)`` key."""

    fn: Callable
    args: Tuple
    cancelled: bool = False


class Simulator:
    """The event loop: simulated clock plus factories for all primitives."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.now: float = 0.0
        #: ``(time, seq, event)`` entries: ``seq`` is unique, so the heap
        #: compares plain tuples and never reaches the event.
        self._queue: List[Tuple[float, int, _QueuedEvent]] = []
        self._seq = 0
        self._processes: List[Process] = []
        #: Structured observability channel; zero-cost while unsubscribed.
        self.bus = bus if bus is not None else EventBus()

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> _QueuedEvent:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        ev = _QueuedEvent(fn, args)
        heapq.heappush(self._queue, (self.now + delay, self._seq, ev))
        self._seq += 1
        return ev

    def cancel(self, ev: _QueuedEvent) -> None:
        ev.cancelled = True

    # -- factories -----------------------------------------------------------
    def spawn(self, name: str, gen: Generator) -> Process:
        """Start a new process executing ``gen``."""
        return Process(self, name, gen)

    def event(self, name: str = "event") -> SimEvent:
        return SimEvent(self, name)

    def resource(self, name: str = "resource", capacity: int = 1) -> Resource:
        return Resource(self, name, capacity)

    def mailbox(self, name: str = "mailbox") -> Mailbox:
        return Mailbox(self, name)

    # -- main loop -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Raises :class:`DeadlockError` if the queue empties while some
        process is still blocked — e.g. a receive with no matching send.
        Returns the final simulated time.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            time, _, ev = entry
            if ev.cancelled:
                continue
            if until is not None and time > until:
                heapq.heappush(queue, entry)
                self.now = until
                return self.now
            if time < self.now:
                raise AssertionError("event queue went backwards")
            self.now = time
            ev.fn(*ev.args)
        blocked = [p for p in self._processes if p.alive]
        if blocked and until is None:
            details = ", ".join(
                f"{p.name} ({p.waiting_description()})" for p in blocked
            )
            raise DeadlockError(
                f"simulation deadlocked at t={self.now:g}; "
                f"blocked processes: {details}"
            )
        return self.now
