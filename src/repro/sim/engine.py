"""Discrete-event simulation engine.

A deliberately small, deterministic event loop: events are ``(time, seq)``
ordered, where ``seq`` is a monotonically increasing tiebreaker so that
same-timestamp events fire in scheduling order.  Time is a float in seconds;
at 10 Gbps a 64-byte frame lasts ~67 ns, comfortably inside double precision
for the simulated horizons used here (milliseconds to seconds).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import repeat
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable
from weakref import WeakMethod

from ..errors import SimulationError
from .burst import chain_reservations, keepup_reservations, queue_peak

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import numpy as np

    from ..obs.profiler import LoopProfiler

_INF = float("inf")


class EventHandle:
    """Handle returned by ``schedule``; allows O(1) cancellation.

    A cancelled event is one with nothing left to call: :meth:`cancel`
    drops the callback (and whatever it closes over) on the spot, and the
    loop discards the entry when it reaches the heap head.
    """

    __slots__ = ("callback", "args")

    def __init__(self, callback: Callable[..., Any], args: tuple) -> None:
        self.callback = callback
        self.args = args

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self.callback = None

    @property
    def cancelled(self) -> bool:
        return self.callback is None


# ``schedule`` builds its handle with this and two slot stores: no
# Python-level ``__init__`` frame per event.
_new_handle = EventHandle.__new__


class Simulator:
    """The event loop.

    Components keep a reference to the simulator, call
    :meth:`schedule`/:meth:`schedule_at` to arrange callbacks, and read
    :attr:`now` for the current simulation time.  A component that holds
    work for virtual times ahead of its next event registers a cut hook
    (:meth:`add_cut_hook`), so that a ``run(until=)`` settles it.
    """

    def __init__(self) -> None:
        # Heap of (when, seq, handle): heapq orders entries on the float
        # and the int, in C; seq is unique, so a handle is never compared.
        # A port's in-flight FIFO (repro.sim.link) takes each frame's seq
        # at reservation and pushes its head here itself, one at a time:
        # each fires where schedule_at at reservation would have put it.
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        # Current simulation time in seconds.  A plain attribute (it is
        # read several times per event); only this module may store to it.
        self.now = 0.0
        self._running = False
        self.events_processed = 0
        # Upper bound of the current run() window.  Batched components that
        # replay several virtual times inside one event consult this so
        # they never deliver work the event-per-frame execution would have
        # left beyond the window.
        self.horizon = _INF
        # Optional event-loop profiler (repro.obs.profiler.LoopProfiler):
        # when installed, each dispatched event's wall-clock cost is
        # attributed to the handling component class.  None costs one
        # attribute load per event.
        self.profiler: "LoopProfiler | None" = None
        # Bound methods called at the end of every run(until=), held weakly.
        self._cut_hooks: list[WeakMethod] = []

    def add_cut_hook(self, hook: Callable[[float], Any]) -> None:
        """Settle ``hook``'s owner at the end of every ``run(until=)``.

        ``hook(until)`` must do, for virtual times at or before ``until``,
        what the owner's own later events would have done for them (the
        fast PPE processes and hands over what has finished by then).  It
        is a bound method, held weakly: the hook lives as long as the
        object it is bound to, and a replaced component leaves none behind.
        """
        self._cut_hooks.append(WeakMethod(hook))

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also refuses NaN, which compares False either way
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        event = _new_handle(EventHandle)
        event.callback = callback
        event.args = args
        heappush(self._queue, (self.now + delay, seq, event))
        return event

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if not when >= self.now:  # a NaN would break the heap order behind it
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self.now})"
            )
        self._seq = seq = self._seq + 1
        event = _new_handle(EventHandle)
        event.callback = callback
        event.args = args
        heappush(self._queue, (when, seq, event))
        return event

    def _dispatch(self, until: float, limit: float) -> int:
        """Fire up to ``limit`` events due by ``until``; how many fired.

        The one loop behind :meth:`run`, :meth:`step` and
        :meth:`peek_next_time`: each iteration looks at the heap head
        once, drops it if cancelled, and otherwise stops or pops and
        fires it.  It therefore always returns with a live event (or
        nothing) at the head.
        """
        queue = self._queue
        fired = 0
        while queue:
            when, _seq, event = queue[0]
            callback = event.callback
            if callback is None:  # cancelled
                heappop(queue)
                continue
            if when > until or fired >= limit:
                break
            heappop(queue)
            self.now = when
            self.events_processed += 1
            fired += 1
            profiler = self.profiler
            if profiler is None:
                callback(*event.args)
            else:
                # Wall-clock reads are the profiler's whole purpose; they
                # attribute real CPU time and never feed simulated state.
                start = perf_counter()  # flexsfp: allow(det-wallclock)
                try:
                    callback(*event.args)
                finally:
                    elapsed = perf_counter() - start  # flexsfp: allow(det-wallclock)
                    profiler.record(callback, elapsed)
        return fired

    def peek_next_time(self) -> float | None:
        """Timestamp of the next pending event, if any."""
        self._dispatch(_INF, 0)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Run a single event; returns False when the queue is empty."""
        return self._dispatch(_INF, 1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the queue drains, ``until``, or ``max_events``.

        Returns the simulation time when the run stopped.  When ``until`` is
        given, time is advanced to exactly ``until`` even if the queue drains
        earlier (so rate meters read consistent windows), and the cut
        settles first: once every event due by ``until`` has fired, the cut
        hooks run, then the events they made due, and so on until nothing
        is due at or before ``until``.  A component's state at the cut is
        then what the event-per-frame execution shows at ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self.horizon = _INF if until is None else until
        try:
            limit = _INF if max_events is None else max_events
            fired = self._dispatch(self.horizon, limit)
            if until is not None and self.now <= until:
                while fired < limit and self._cut(until):
                    fired += self._dispatch(until, limit - fired)
                self.now = until
        finally:
            self._running = False
            self.horizon = _INF
        return self.now

    def _cut(self, until: float) -> bool:
        """Run every live cut hook at ``until``; whether an event is now due."""
        self._cut_hooks = hooks = [ref for ref in self._cut_hooks if ref() is not None]
        for ref in hooks:
            hook = ref()
            if hook is not None:
                hook(until)
        self._dispatch(until, 0)  # drops cancelled entries off the head
        queue = self._queue
        return bool(queue) and queue[0][0] <= until

    def pending(self) -> int:
        """Number of not-yet-cancelled queued events (O(n): walks the heap)."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)


class ServiceTimeline:
    """Analytic busy clock of a bounded-FIFO single server.

    The event-per-frame pattern (schedule service completion, then schedule
    the next start) costs one or two heap events per frame.  Batched
    components instead *admit* frames onto this timeline — the arithmetic
    is identical to the sequential schedule (``start = max(arrival,
    free_at)``, ``finish = start + service``, same float operations in the
    same order), so per-frame start/finish timestamps are bit-identical to
    the unbatched execution while only one real event fires per batch.

    The timeline also tracks byte occupancy: an admitted frame's bytes stay
    "queued" until its virtual start time passes, which keeps tail-drop /
    overload decisions at intermediate arrival events identical to the
    event-per-frame execution.  :meth:`admit` is the one place that
    sequence lives — ports and PPEs call it rather than reaching into the
    reservation deque — and :meth:`admit_burst` is its vector form.  Call
    :meth:`drain` with the current simulation time before reading
    :attr:`pending_bytes` or :attr:`pending_frames`.
    """

    __slots__ = ("free_at", "pending_bytes", "_pending")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.pending_bytes = 0
        self._pending: deque[tuple[float, int]] = deque()

    @property
    def pending_frames(self) -> int:
        """Admitted frames whose service has not started (as of the last drain)."""
        return len(self._pending)

    def admit(
        self, at: float, size: int, service_s: float, limit: int
    ) -> float | None:
        """Offer one ``size``-byte frame arriving at ``at``.

        Drains the occupancy to the arrival (the state the event-per-frame
        execution would see when the frame showed up), tail-drops when the
        frame does not fit under ``limit`` bytes (returns None), otherwise
        reserves the next service slot and returns its finish time.
        Arrivals must be non-decreasing across calls.
        """
        pending = self._pending
        pending_bytes = self.pending_bytes
        while pending and pending[0][0] <= at:  # drain(at), inlined: hot path
            pending_bytes -= pending.popleft()[1]
        if pending_bytes + size > limit:
            self.pending_bytes = pending_bytes
            return None
        free_at = self.free_at
        start = at if at > free_at else free_at
        self.free_at = finish = start + service_s
        pending.append((start, size))
        self.pending_bytes = pending_bytes + size
        return finish

    def admit_burst(
        self, times: "np.ndarray", size: int, service_s: float, limit: int
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Offer a burst of same-size frames; ``(admitted_times, finishes)``.

        Equal, by definition and by property test, to folding
        :meth:`admit` over ``times`` (a non-empty, non-decreasing float64
        array): the same frames admitted, bit-equal finishes and the same
        ``free_at``, occupancy and pending reservations the fold leaves.
        Two vector kernels (:mod:`repro.sim.burst`) cover the traffic that
        does not tail-drop: keep-up when the head finds the server idle and
        no frame queues, then the busy chain, alternating busy and keep-up
        runs, kept when no arrival finds the queue over ``limit`` (at once
        when the whole burst fits on top of the occupancy at its head, else
        counted over the chain's starts).  Everything else is the fold
        itself.
        """
        pending = self._pending
        head = float(times[0])
        self.drain(head)
        n = len(times)
        free_at = self.free_at
        if head >= free_at and size <= limit:
            # Nothing is pending (every reserved start precedes free_at)
            # and each arrival drains its predecessor: one frame fitting
            # is the exact no-drop condition, and one frame stays pending.
            # Tried first: where the busy chain also holds, every arrival
            # ties its predecessor's finish and both give the same floats.
            on_arrival = keepup_reservations(times, service_s)
            if on_arrival is not None:
                self.free_at = float(on_arrival[-1])
                pending.append((float(times[-1]), size))
                self.pending_bytes = size
                return times, on_arrival
        runs = chain_reservations(times, service_s, free_at)
        if runs is not None and (
            # Fits whole on top of the occupancy at its head, which only
            # shrinks; else no arrival finds the queue over the limit.
            self.pending_bytes + n * size <= limit
            or queue_peak(times, runs[0], size, pending) <= limit
        ):
            starts, finishes = runs
            self.free_at = float(finishes[-1])
            # The fold drains to each arrival in turn: only starts past
            # the last arrival, and the last frame's own, stay pending.
            last = float(times[-1])
            self.drain(last)
            matured = int(starts[: n - 1].searchsorted(last, side="right"))
            pending.extend(zip(starts[matured:].tolist(), repeat(size)))
            self.pending_bytes += (n - matured) * size
            return times, finishes
        admit = self.admit
        admitted: list[float] = []
        finishes: list[float] = []
        for at in times.tolist():
            finish = admit(at, size, service_s, limit)
            if finish is not None:
                admitted.append(at)
                finishes.append(finish)
        import numpy as np

        return np.asarray(admitted), np.asarray(finishes)

    def drain(self, now: float) -> None:
        """Release the bytes of every reservation whose start has passed."""
        pending = self._pending
        while pending and pending[0][0] <= now:
            self.pending_bytes -= pending.popleft()[1]

    def reset(self) -> None:
        self.free_at = 0.0
        self.pending_bytes = 0
        self._pending.clear()


class Window:
    """One ``[start, until)`` interval of virtual time at a ``level``: the
    one answer to "is time ``t`` inside a dark or raised window?", asked at
    a frame's own time (hot paths read ``start <= when < until`` inline)."""

    __slots__ = ("start", "until", "level")

    def __init__(self) -> None:
        self.start = self.until = -_INF  # empty: holds no time
        self.level = 0.0

    def open(self, start: float, duration: float, level: float = 1.0) -> None:
        """Merge into an overlapping or touching window (the union, at the
        higher level); replace a disjoint one, level included."""
        until = start + duration
        if start <= self.until and until >= self.start:
            start = min(self.start, start)
            until = max(self.until, until)
            level = max(self.level, level)
        self.start, self.until, self.level = start, until, level

    def close(self, at: float) -> None:
        self.until = min(self.until, at)

    def __contains__(self, when: float) -> bool:
        return self.start <= when < self.until


class PeriodicTask:
    """Re-arms a callback every ``interval`` seconds until stopped."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_after: float | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._stopped = False
        self._handle = sim.schedule(
            interval if start_after is None else start_after, self._fire
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._handle = self.sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Stop the periodic task (pending occurrence is cancelled)."""
        self._stopped = True
        self._handle.cancel()
