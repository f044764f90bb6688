"""Discrete-event engine: ordering, cancellation, periodic tasks."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.sim import PeriodicTask


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
