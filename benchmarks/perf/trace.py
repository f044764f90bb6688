"""Outside-in span tracing: where a scenario's host time goes, by layer.

Nothing under ``src/`` knows about this file.  :class:`LayerTrace`
replaces each layer's public entry points (the table below) with a
wrapper that records one span per call — layer, start, end, parent —
into in-memory arrays, and puts every original back on exit.  A layer's
*self time* is the duration of its spans minus the duration of the spans
they directly caused, so the layers partition the traced wall clock and
``sum(self_s) + unattributed == traced wall`` by construction.

Two things cross a layer boundary without going through a named entry
point, and both are attributed by the *owner's module*:

* event callbacks, through the public ``Simulator.profiler`` attribute
  (``record(callback, elapsed)`` is the whole protocol): a callback bound
  to a ``Port`` is ``sim.link`` time, one bound to a ``CbrSource`` is
  ``netem.traffic`` time, and so on;
* handlers one layer hands to another (``Port.attach*`` receive handlers,
  the PPE's ``done`` callbacks): wrapped on the way in, so the time the
  link or the PPE spends *inside the module's handler* is charged to
  ``core.module`` and not to the caller.

What an outside-in trace cannot see: a hot path that binds a private
method directly (``port._reserve_tx``, ``ppe._submit_batched``) stays in
its caller's self time.  The wrapper's own cost lands in the parent span,
which is why end-to-end numbers are never taken with a trace installed
and ``trace.overhead_ratio`` is reported beside every traced run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType, MethodType

import numpy as np

#: layer -> the public entry points wrapped for it, as (module, qualname).
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.engine": (
        ("repro.sim.engine", "Simulator.run"),
        ("repro.sim.engine", "Simulator.schedule_at"),
    ),
    "sim.link": (
        ("repro.sim.link", "Port.send"),
        ("repro.sim.link", "Port.send_at"),
        ("repro.sim.link", "Port.send_delayed"),
        ("repro.sim.link", "Port.send_burst"),
    ),
    "packet": (
        ("repro.packet.builder", "make_udp"),
        ("repro.packet.packet", "Packet.copy"),
        ("repro.packet.packet", "Packet.to_bytes"),
        ("repro.packet.packet", "Packet.parse"),
    ),
    # CbrSource has no public per-frame entry point: its emission ticks
    # are event callbacks, attributed through OWNER_LAYERS.
    "netem.traffic": (),
    # ImpairedPort inherits Port.send*: those wrappers pick the layer from
    # the receiver's class, so an impaired port's sends land here.
    "netem.impairments": (
        ("repro.netem.impairments", "ImpairedPort.flap"),
        ("repro.netem.impairments", "ImpairedPort.loss_burst"),
        ("repro.netem.impairments", "ImpairedPort.corrupt_burst"),
        ("repro.netem.impairments", "ImpairedPort.duplicate_burst"),
    ),
    # The switch's per-port receive handlers, handed to Port.attach.
    "switch.legacy": (),
    "nfv.crossbar": (
        ("repro.nfv.crossbar", "Crossbar.steer"),
        ("repro.nfv.crossbar", "Crossbar.steer_bulk"),
    ),
    # Edge/line/mgmt receive handlers and the PPE completion callbacks.
    "core.module": (),
    "core.ppe": (
        ("repro.core.ppe", "PacketProcessingEngine.submit"),
        ("repro.core.ppe", "PacketProcessingEngine.submit_burst"),
        ("repro.core.ppe", "PacketProcessingEngine.flush_begin"),
        ("repro.core.ppe", "PacketProcessingEngine.flush_end"),
    ),
    "core.flowcache": (
        ("repro.core.flowcache", "FlowCache.lookup"),
        ("repro.core.flowcache", "FlowCache.insert"),
    ),
    "core.controlplane": (
        ("repro.core.controlplane", "ControlPlane.handle_frame"),
        ("repro.core.controlplane", "ControlPlane.dispatch"),
    ),
    "fleet": (
        ("repro.fleet", "FleetController.rolling_upgrade"),
        ("repro.fleet", "FleetController.deploy"),
        ("repro.fleet", "FleetController.hello"),
    ),
    "hls": (
        ("repro.hls.compiler", "compile_app"),
        ("repro.hls.executor", "compile_executor"),
    ),
    "obs.registry": (("repro.obs.registry", "MetricsRegistry.collect"),),
}

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)

#: Entry points that are handed callbacks: parameter names to wrap by owner.
HANDOVERS: dict[tuple[str, str], tuple[str, ...]] = {
    ("repro.sim.link", "Port.attach"): ("handler",),
    ("repro.sim.link", "Port.attach_batch"): ("handler",),
    ("repro.sim.link", "Port.attach_burst"): ("handler",),
    ("repro.core.ppe", "PacketProcessingEngine.submit"): ("done",),
    ("repro.core.ppe", "PacketProcessingEngine.submit_burst"): (
        "done_burst",
        "done_frame",
    ),
}

#: Module-name prefix -> layer, for callbacks attributed by their owner.
OWNER_LAYERS: dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.packet": "packet",
    "repro.netem.traffic": "netem.traffic",
    "repro.netem.impairments": "netem.impairments",
    "repro.switch.legacy": "switch.legacy",
    "repro.nfv.crossbar": "nfv.crossbar",
    "repro.core.module": "core.module",
    "repro.core.ppe": "core.ppe",
    "repro.core.flowcache": "core.flowcache",
    "repro.core.controlplane": "core.controlplane",
    "repro.fleet": "fleet",
    "repro.hls": "hls",
    "repro.obs.registry": "obs.registry",
}

_UNATTRIBUTED = -1
_CALLABLES = (MethodType, FunctionType)


def _owner_module(callback) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None and not inspect.ismodule(owner):
        return type(owner).__module__
    return getattr(callback, "__module__", None) or ""


class LayerTrace:
    """One traced repeat: install, run the workload under :meth:`root`, read.

    Spans are four parallel arrays indexed by span id (allocated at open,
    so a parent's id is known when its children open).  ``trace_id`` names
    the repeat; every span of the repeat shares it.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = [-1]
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._module_layers: dict[str, int] = {}
        self._wrapped_callbacks: dict[object, object] = {}
        # (namespace object, attribute name, original, replacement)
        self._patches: list[tuple[object, str, object, object]] = []
        self.unattributed_owners: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _open(self, layer: int) -> int:
        sid = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The span the workload's repeat runs under."""
        sid = self._open(_UNATTRIBUTED)
        try:
            yield
        finally:
            self._close(sid)

    def _layer_of_module(self, module: str) -> int:
        cached = self._module_layers.get(module)
        if cached is not None:
            return cached
        layer = _UNATTRIBUTED
        best = -1
        for prefix, name in OWNER_LAYERS.items():
            if len(prefix) > best and (
                module == prefix or module.startswith(prefix + ".")
            ):
                layer, best = self._index[name], len(prefix)
        self._module_layers[module] = layer
        return layer

    def _timed(self, fn, declared: int, method: bool):
        """``fn`` with one span per call.

        For methods the receiver's class picks the layer when its module
        maps to one (an ``ImpairedPort`` calling the inherited
        ``Port.send`` is impairment time); otherwise the declared layer.
        """
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        by_type: dict[type, int] = {}

        def layer_for(cls: type) -> int:
            layer = self._layer_of_module(cls.__module__)
            by_type[cls] = layer = declared if layer == _UNATTRIBUTED else layer
            return layer

        if method:

            def wrapper(*args, **kwargs):
                cls = type(args[0])
                layer = by_type.get(cls)
                if layer is None:
                    layer = layer_for(cls)
                sid = len(starts)
                layers.append(layer)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(sid)
                starts.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = perf_counter()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                sid = len(starts)
                layers.append(declared)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(sid)
                starts.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = perf_counter()
                    stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_callback(self, callback):
        """A handed-over callback, timed under its owner's layer."""
        wrapped = self._wrapped_callbacks.get(callback)
        if wrapped is None:
            layer = self._layer_of_module(_owner_module(callback))
            wrapped = (
                callback
                if layer == _UNATTRIBUTED
                else self._timed(callback, layer, method=False)
            )
            self._wrapped_callbacks[callback] = wrapped
        return wrapped

    def _handing_over(self, fn, names: tuple[str, ...]):
        """``fn`` with the callbacks it is handed wrapped by owner layer."""
        params = list(inspect.signature(fn).parameters)
        slots = tuple((params.index(name), name) for name in names)
        wrap = self._wrap_callback

        def wrapper(*args, **kwargs):
            for position, name in slots:
                if position < len(args):
                    if isinstance(args[position], _CALLABLES):
                        args = (
                            args[:position]
                            + (wrap(args[position]),)
                            + args[position + 1 :]
                        )
                elif isinstance(kwargs.get(name), _CALLABLES):
                    kwargs[name] = wrap(kwargs[name])
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_with_events(self, run):
        """``Simulator.run`` with its event callbacks recorded as spans."""
        engine = self._index["sim.engine"]

        def wrapper(sim, *args, **kwargs):
            sid = self._open(engine)
            events = None
            if sim.profiler is None:
                events = sim.profiler = _EventSpans(self)
            try:
                return run(sim, *args, **kwargs)
            finally:
                if events is not None:
                    events.disarm()
                    sim.profiler = None
                self._close(sid)

        wrapper.__wrapped__ = run
        return wrapper

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        targets: dict[tuple[str, str], int] = {}
        for layer, points in ENTRY_POINTS.items():
            for point in points:
                targets[point] = self._index[layer]
        for point in HANDOVERS:
            targets.setdefault(point, _UNATTRIBUTED)
        for (module_name, qualname), layer in targets.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            new = fn
            if (module_name, qualname) in HANDOVERS:
                new = self._handing_over(new, HANDOVERS[(module_name, qualname)])
            if qualname == "Simulator.run":
                new = self._run_with_events(new)
            elif layer != _UNATTRIBUTED:
                # A classmethod's receiver is the class itself, so only a
                # plain method lets the receiver's class pick the layer.
                new = self._timed(new, layer, method=bool(owner_name) and raw is fn)
            if raw is not fn:
                new = type(raw)(new)
            if owner_name:
                self._patch(owner, attr, raw, new)
            else:
                # ``from x import f`` copies the binding: patch every
                # repro namespace that holds the original.
                for namespace in _repro_modules():
                    for name, value in list(vars(namespace).items()):
                        if value is raw:
                            self._patch(namespace, name, raw, new)

    def _patch(self, namespace, name: str, original, replacement) -> None:
        setattr(namespace, name, replacement)
        self._patches.append((namespace, name, original, replacement))

    def restore(self) -> None:
        """Put every original back, including in modules imported since."""
        replaced = {id(new): original for _ns, _n, original, new in self._patches}
        for namespace, name, original, _new in reversed(self._patches):
            setattr(namespace, name, original)
        for namespace in _repro_modules():
            for name, value in list(vars(namespace).items()):
                if id(value) in replaced:
                    setattr(namespace, name, replaced[id(value)])
        self._patches.clear()
        self._wrapped_callbacks.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(namespace, name, original) per installed wrapper — for the
        test that every one is restored."""
        return [(ns, name, original) for ns, name, original, _new in self._patches]

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Per-layer self time and span count, and the identity's terms.

        ``wall_s`` is the total duration of the root spans; ``self_s`` per
        layer plus ``unattributed_s`` add up to it exactly (up to float
        rounding), because every non-root span's duration is added to its
        own layer and subtracted from its parent's.
        """
        layer = np.frombuffer(self.layer, dtype=np.int8).astype(np.int64)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        slots = len(LAYERS) + 1  # slot 0 is the unattributed bucket
        self_s = np.bincount(layer + 1, weights=duration, minlength=slots)
        child = parent >= 0
        self_s -= np.bincount(
            layer[parent[child]] + 1, weights=duration[child], minlength=slots
        )
        calls = np.bincount(layer + 1, minlength=slots)
        return {
            "trace_id": self.trace_id,
            "spans": int(len(layer)),
            "wall_s": float(duration[~child].sum()),
            "unattributed_s": float(self_s[0]),
            "self_s": {name: float(self_s[i + 1]) for i, name in enumerate(LAYERS)},
            "calls": {name: int(calls[i + 1]) for i, name in enumerate(LAYERS)},
        }

    def write(self, path) -> None:
        """Write the spans held in memory (compressed ``.npz``)."""
        np.savez_compressed(
            path,
            trace_id=np.array(self.trace_id),
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


class _EventSpans:
    """The ``Simulator.profiler`` that turns event callbacks into spans.

    The engine reports a callback only *after* it ran, so the span for the
    next event is opened ahead of time: spans the callback causes find it
    on the stack as their parent, and ``record`` fills in its layer and
    its times (from the engine's own measurement) afterwards.
    """

    def __init__(self, trace: LayerTrace) -> None:
        self._trace = trace
        self._layers: dict[object, int] = {}
        self._sid = self._arm()

    def _arm(self) -> int:
        trace = self._trace
        sid = len(trace.start)
        trace.layer.append(_UNATTRIBUTED)
        trace.parent.append(trace._stack[-1])
        trace.start.append(0.0)
        trace.end.append(0.0)
        trace._stack.append(sid)
        return sid

    def record(self, callback, elapsed_s: float) -> None:
        now = perf_counter()
        trace = self._trace
        layer = self._layers.get(callback)
        if layer is None:
            layer = self._layers[callback] = trace._layer_of_module(
                _owner_module(callback)
            )
        if layer == _UNATTRIBUTED:
            owners = trace.unattributed_owners
            module = _owner_module(callback)
            owners[module] = owners.get(module, 0.0) + elapsed_s
        sid = self._sid
        trace.layer[sid] = layer
        trace.start[sid] = now - elapsed_s
        trace.end[sid] = now
        trace._stack.pop()
        self._sid = self._arm()

    def disarm(self) -> None:
        # The span armed for an event that never came keeps zero duration.
        self._trace._stack.pop()


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
