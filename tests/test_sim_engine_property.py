"""``Simulator`` against the ordering it used to spell out in Python.

The event heap holds ``(when, seq, handle)`` tuples, so ``heapq`` orders
events on a float and an int without ever calling into Python.  The
executable definition of that order is what ``EventHandle.__lt__`` used to
be — ``(time, seq) < (time, seq)`` — and it lives here now, on
:class:`ModelEvent`, under a scheduler that keeps no heap at all: it sorts
its live events with that ``__lt__`` every time it needs the next one.

The property runs generated programs against both — ``schedule`` /
``schedule_at`` / ``cancel`` at the top level and from inside callbacks,
``run()``, ``run(until=)``, ``run(max_events=)``, ``step`` and
``peek_next_time``, delays drawn from a coarse grid so equal-time events
are the common case — and demands the same firing order, ``now``,
``events_processed`` and ``pending()`` after every call that can fire or
look.  Every callback is a fresh closure and carries an argument with no
ordering, so a heap compare that reached a handle would raise.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class ModelEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time, seq, callback, args):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class ModelScheduler:
    """The reference: an unordered bag, sorted whenever the head is needed."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._events = []

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        self._seq += 1
        event = ModelEvent(when, self._seq, callback, args)
        self._events.append(event)
        return event

    def _live(self):
        return sorted(event for event in self._events if not event.cancelled)

    def pending(self):
        return len(self._live())

    def peek_next_time(self):
        live = self._live()
        return live[0].time if live else None

    def step(self):
        live = self._live()
        if not live:
            return False
        self._events.remove(live[0])
        self.now = live[0].time
        self.events_processed += 1
        live[0].callback(*live[0].args)
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            head = self.peek_next_time()
            if head is None or (until is not None and head > until):
                break
            self.step()
            fired += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now


#: Arguments no two of which can be ordered (nor can the closures).
UNORDERABLE = (object, dict, lambda: 1j, lambda: None, lambda: {1, 2})


class Driver:
    """Interprets one program against one scheduler, logging every firing."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.handles = []
        self.log = []
        self.from_inside = Counter()  # ops performed by callbacks

    def spawn(self, how, offset, action):
        ident = len(self.handles)
        junk = UNORDERABLE[ident % len(UNORDERABLE)]()
        callback = lambda _junk: self.fire(ident, action)  # noqa: E731
        if how == "schedule":
            handle = self.scheduler.schedule(offset, callback, junk)
        else:
            handle = self.scheduler.schedule_at(
                self.scheduler.now + offset, callback, junk
            )
        self.handles.append(handle)

    def cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def fire(self, ident, action):
        self.log.append((ident, self.scheduler.now))
        for op in action:
            self.from_inside[op[0]] += 1
            if op[0] == "cancel":
                self.cancel(op[1])
            else:
                self.spawn(*op)

    def state(self):
        scheduler = self.scheduler
        return (
            list(self.log),
            scheduler.now,
            scheduler.events_processed,
            scheduler.pending(),
        )


DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
)
CANCELS = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60))


def _ops(actions):
    spawns = st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS, actions)
    return st.lists(st.one_of(spawns, spawns, CANCELS), max_size=3).map(tuple)


# An action is what a callback does after logging itself: nested ops.
ACTIONS = st.recursive(st.just(()), _ops, max_leaves=6)
COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS, ACTIONS),
        st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS, ACTIONS),
        CANCELS,
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), DELAYS),
            st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    min_size=4,
    max_size=30,
)


def test_simulator_matches_the_sorted_list_scheduler():
    seen = Counter()

    @settings(max_examples=400, deadline=None)
    @given(commands=COMMANDS)
    def check(commands):
        real, model = Driver(Simulator()), Driver(ModelScheduler())
        for command in (*commands, ("run", None, None)):
            results = []
            fired_before = real.scheduler.events_processed
            for driver in (real, model):
                scheduler = driver.scheduler
                if command[0] == "cancel":
                    results.append(driver.cancel(command[1]))
                elif command[0] == "run":
                    until = command[1]
                    if until is not None:
                        until = scheduler.now + until
                    results.append(scheduler.run(until=until, max_events=command[2]))
                elif command[0] == "step":
                    results.append(scheduler.step())
                elif command[0] == "peek":
                    results.append(scheduler.peek_next_time())
                else:
                    results.append(driver.spawn(*command))
                results.append(driver.state())
            assert results[:2] == results[2:], command
            if command[0] == "run" and real.scheduler.pending():
                _log, now, fired, _pending = real.state()
                seen["stopped by max_events"] += fired - fired_before == command[2]
                seen["stopped by until"] += real.scheduler.peek_next_time() > now
        log = real.log
        assert real.scheduler.pending() == 0
        times = [when for _ident, when in log]
        assert times == sorted(times)
        seen["ties"] += len(times) - len(set(times))
        seen["fired"] += len(log)
        seen["scheduled from inside"] += (
            real.from_inside["schedule"] + real.from_inside["schedule_at"]
        )
        seen["cancelled from inside"] += real.from_inside["cancel"]
        seen["never fired"] += len(real.handles) - len(log)

    check()
    # The regimes the claim is about were actually generated.
    for regime in (
        "ties",
        "scheduled from inside",
        "cancelled from inside",
        "never fired",
        "stopped by max_events",
        "stopped by until",
    ):
        assert seen[regime] >= 10, (regime, dict(seen))
