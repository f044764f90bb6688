"""Discrete-event engine: ordering, cancellation, periodic tasks, windows."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.sim import PeriodicTask
from repro.sim.engine import Window


class TestScheduling:
    def test_time_advances(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_fifo_order_for_equal_times(self, sim):
        fired = []
        for tag in "abc":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_nan_time_rejected(self, sim, method):
        # NaN compares False both ways: a `<` guard lets it through, and
        # inside a heap tuple it breaks the order of everything behind it.
        fired = []
        sim.schedule(0.5, fired.append, 0.5)
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), fired.append, "nan")
        sim.schedule(1.0, fired.append, 1.0)
        assert sim.pending() == 2
        sim.run()
        assert fired == [0.5, 1.0]
        assert sim.now == 1.0

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        handle.cancel()
        assert sim.pending() == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["in", "out"]

    def test_run_until_advances_time_when_idle(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step(self, sim):
        sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()

    def test_peek_next_time(self, sim):
        assert sim.peek_next_time() is None
        sim.schedule(4.0, lambda: None)
        assert sim.peek_next_time() == 4.0

    def test_profiler_brackets_every_event_of_the_one_loop(self, sim):
        class Recorder:
            def __init__(self):
                self.seen = []

            def record(self, callback, elapsed_s):
                assert elapsed_s >= 0.0
                self.seen.append(callback)

        def boom():
            raise RuntimeError("boom")

        tick = lambda: None  # noqa: E731
        sim.profiler = recorder = Recorder()
        sim.schedule(1.0, tick)
        sim.schedule(2.0, tick).cancel()
        sim.schedule(3.0, tick)
        sim.schedule(4.0, boom)
        assert sim.step()
        sim.run(until=3.5)
        assert recorder.seen == [tick, tick]
        # A raising callback is still recorded, and the run stays usable.
        with pytest.raises(RuntimeError):
            sim.run()
        assert recorder.seen == [tick, tick, boom]
        assert sim.events_processed == 3 and sim.horizon == float("inf")
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestCutHooks:
    """``run(until=)`` ends with a fixpoint: events due by ``until``, then
    the cut hooks, then what they made due, until nothing is due."""

    class Holder:
        """Work held for a virtual time, settled by a cut or its own event."""

        def __init__(self, sim, at):
            self.sim, self.at, self.done, self.cuts = sim, at, [], []
            sim.add_cut_hook(self.settle)

        def settle(self, until):
            self.cuts.append(until)
            if self.at is not None and self.at <= until:
                # Hand the work over as an event at its own time, which the
                # same cut must still fire.
                self.sim.schedule_at(max(self.at, self.sim.now), self.done.append, self.at)
                self.at = None

    def test_a_cut_fires_what_its_hooks_made_due(self, sim):
        holder = self.Holder(sim, at=2.0)
        sim.schedule(1.0, lambda: None)
        sim.run(until=3.0)
        assert holder.done == [2.0]
        # Once to hand the work over, once more to find nothing due.
        assert holder.cuts == [3.0, 3.0]
        assert sim.now == 3.0

    def test_no_cut_without_until_or_past_the_limit(self, sim):
        holder = self.Holder(sim, at=2.0)
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.5, lambda: None)
        sim.run()
        sim.run(until=0.5)  # a cut in the past settles nothing
        assert holder.cuts == [] and sim.now == 1.5
        sim.schedule(0.1, lambda: None)
        sim.run(until=2.5, max_events=1)
        assert holder.cuts == []
        sim.run(until=2.5)
        assert holder.done == [2.0]

    def test_a_hook_lives_as_long_as_its_owner(self, sim):
        import gc

        kept = self.Holder(sim, at=None)
        gone = self.Holder(sim, at=None)
        cuts = gone.cuts
        del gone
        gc.collect()
        sim.run(until=1.0)
        assert kept.cuts == [1.0] and cuts == []
        assert len(sim._cut_hooks) == 1


class TestPeriodicTask:
    def test_fires_on_interval(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_stop(self, sim):
        count = []
        task = PeriodicTask(sim, 1.0, lambda: count.append(1))
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert len(count) == 2

    def test_start_after(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), start_after=0.25)
        sim.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_invalid_interval(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)


class TestWindow:
    """One ``[start, until)`` interval; ``open`` merges or starts fresh."""

    def test_an_empty_window_holds_no_time(self):
        window = Window()
        assert 0.0 not in window and -1e9 not in window
        window.close(5.0)
        assert 5.0 not in window

    def test_overlapping_windows_merge_to_the_union_at_the_higher_level(self):
        window = Window()
        window.open(1.0, 2.0, level=0.9)
        window.open(2.0, 2.0, level=0.1)
        assert (window.start, window.until, window.level) == (1.0, 4.0, 0.9)
        assert 1.0 in window and 3.5 in window and 4.0 not in window

    def test_touching_windows_merge(self):
        window = Window()
        window.open(1.0, 1.0, level=0.2)
        window.open(2.0, 1.0, level=0.5)
        assert (window.start, window.until, window.level) == (1.0, 3.0, 0.5)

    def test_a_disjoint_window_starts_fresh_with_its_own_level(self):
        window = Window()
        window.open(1.0, 1.0, level=0.9)
        window.open(5.0, 1.0, level=0.1)
        assert (window.start, window.until, window.level) == (5.0, 6.0, 0.1)
        assert 1.5 not in window

    def test_a_running_window_opened_before_an_announced_one_merges_with_it(self):
        """A slot's reconfiguration announced for t = 1.0, then a module
        reboot at 0.95: one dark window from the reboot to the end of the
        announced one, whichever order the two arrive in."""
        announced_first, running_first = Window(), Window()
        announced_first.open(1.0, 0.12)
        announced_first.open(0.95, 0.12)
        running_first.open(0.95, 0.12)
        running_first.open(1.0, 0.12)
        for window in (announced_first, running_first):
            assert (window.start, window.until) == (0.95, 1.0 + 0.12)

    def test_close_ends_the_window_early(self):
        window = Window()
        window.open(1.0, 2.0)
        window.close(1.5)
        assert 1.25 in window and 1.5 not in window
        window.close(9.0)  # past its end: nothing to shorten
        assert window.until == 1.5


# Every receive handler of the fabric, by (file, class, method): each judges
# a frame at the time it was handed, never at ``sim.now``.
RECEIVE_HANDLERS = (
    ("core/module.py", "FlexSFPModule", "_ingress"),
    ("core/module.py", "FlexSFPModule", "_ingress_burst"),
    ("core/module.py", "FlexSFPModule", "_on_mgmt_rx"),
    ("netem/impairments.py", "ImpairedPort", "_deliver"),
    ("netem/impairments.py", "ImpairedPort", "_finish_rx"),
    ("switch/legacy.py", "LegacySwitch", "_forward"),
    ("core/controlplane.py", "ControlPlane", "handle_frame"),
)


def test_no_receive_handler_reads_the_clock():
    """A frame's time is its ``when`` argument: no receive handler loads
    an attribute named ``now`` (the sibling of the store scan below)."""
    root = Path(repro.__file__).parent
    offenders = []
    for relative, cls, method in RECEIVE_HANDLERS:
        tree = ast.parse((root / relative).read_text())
        (body,) = [
            node
            for klass in tree.body
            if isinstance(klass, ast.ClassDef) and klass.name == cls
            for node in klass.body
            if isinstance(node, ast.FunctionDef) and node.name == method
        ]
        arguments = {arg.arg for arg in body.args.args}
        assert arguments & {"when", "whens"}, (cls, method)
        offenders += [
            f"{cls}.{method}:{node.lineno}"
            for node in ast.walk(body)
            if isinstance(node, ast.Attribute) and node.attr == "now"
        ]
    assert offenders == []


def test_only_the_engine_stores_to_now():
    """``sim.now`` is a plain attribute (a property cost 79k calls a run).

    What keeps it read-only is this test: no module under ``src/repro``
    but the engine may assign, augment, delete or ``setattr`` an attribute
    named ``now``.
    """
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "sim" / "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            stored = (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and not isinstance(node.ctx, ast.Load)
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            )
            if stored:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
    engine = ast.parse((root / "sim" / "engine.py").read_text())
    assert any(
        isinstance(node, ast.Attribute)
        and node.attr == "now"
        and isinstance(node.ctx, ast.Store)
        for node in ast.walk(engine)
    ), "the scan no longer sees the engine's own stores"


def test_only_the_tracer_stores_into_packet_meta():
    """A frame carries no hidden state: its time travels as an argument.

    No module under ``src/repro`` but the tracer (the ``trace_id`` of a
    traced frame) may subscript-assign or delete on a ``.meta`` attribute,
    or call a mutating dict method on one.
    """
    root = Path(repro.__file__).parent
    mutators = {"pop", "popitem", "update", "setdefault", "clear", "__setitem__"}

    def is_meta(node):
        return isinstance(node, ast.Attribute) and node.attr == "meta"

    def stores(path):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Subscript)
                and is_meta(node.value)
                and not isinstance(node.ctx, ast.Load)
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators
                and is_meta(node.func.value)
            ):
                yield f"{path.relative_to(root)}:{node.lineno}"

    tracer = root / "obs" / "trace.py"
    offenders = [
        where
        for path in sorted(root.rglob("*.py"))
        if path != tracer
        for where in stores(path)
    ]
    assert offenders == []
    assert list(stores(tracer)), "the scan no longer sees the tracer's own store"
