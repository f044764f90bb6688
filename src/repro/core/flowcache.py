"""Flow cache: the PPE's exact-match fast path.

hXDP and PsPIN both get their speed from the same trick: once the general
pipeline has decided what to do with a flow, repeat packets of that flow
take a compiled fast path that skips the full program.  Here the fast path
is modeled as an LRU exact-match cache in front of ``app.process``: the
slow path produces a :class:`FlowRecipe` — the verdict plus a replayable
mutation/counter recipe — and subsequent packets of the same flow replay
the recipe without re-entering the application.

Correctness contract (enforced by ``tests/test_compiled_differential.py``
and ``tests/test_recipe_recorder.py``): replaying a recipe is
bit-identical to running the slow path.  Two mechanisms keep that true:

* the recipe is not written by hand: :func:`record_recipe` records what
  the application's own ``process`` did to the flow's first frame, and
  refuses (per-frame ``process``, no entry) any call no recipe can replay;
* every cached entry is stamped with the application's table-generation
  counter, so any control-plane write invalidates affected entries — the
  conservative whole-cache flush a real double-buffered flow cache does on
  a rule push.

``flexsfp build --cache-entries`` prices a hardware cache (sized entries
land in LSRAM via :func:`repro.fpga.estimator.flow_cache`, a
``flow_cache`` stage beside the pipeline); the simulator's cache prices
nothing, so a module boots the same image on both engine tiers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from ..errors import ConfigError
from ..packet import VLAN, EtherType, Ethernet, vlan_pop, vlan_push

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..packet import Packet
    from .ppe import Direction, PPEApplication, Verdict

DEFAULT_FLOW_CACHE_ENTRIES = 4096

# Packet properties a recipe may mutate (resolved via getattr(packet, kind)).
_MUTABLE_HEADERS = ("eth", "ipv4", "ipv6", "tcp", "udp")

# Structural ops a recipe may replay.  Unlike mutations these change the
# frame length: each entry maps the op name to its wire-length delta so a
# recipe knows its ``size_delta`` without touching a packet.
_RECIPE_OPS = {"vlan_push": 4, "vlan_pop": -4}


class FlowRecipe:
    """A replayable processing decision for one flow.

    ``mutations`` is a tuple of ``(header, field, value)`` triples where
    ``header`` names a :class:`~repro.packet.Packet` header property
    (``"ipv4"``, ``"eth"``, …); replay sets ``packet.<header>.<field> =
    value``.  ``counters`` names application counters bumped once per
    packet with the packet's wire length — so functional statistics stay
    identical whether a packet took the fast or the slow path.

    ``ops`` is a tuple of structural header operations replayed *before*
    the field mutations: ``("vlan_push", vid, pcp, service)`` or
    ``("vlan_pop",)``.  Ops change the frame length; the recipe's
    ``size_delta`` is the net wire-length change, and counter bumps use
    the post-op size so fast-path statistics match the slow path (which
    counts after its own pushes/pops).
    """

    __slots__ = (
        "verdict",
        "mutations",
        "counters",
        "ops",
        "size_delta",
        "_grouped",
        "_bound_app",
        "_bound_counters",
    )

    def __init__(
        self,
        verdict: "Verdict",
        mutations: tuple[tuple[str, str, int], ...] = (),
        counters: tuple[str, ...] = (),
        ops: tuple[tuple, ...] = (),
    ) -> None:
        for header, _field, _value in mutations:
            if header not in _MUTABLE_HEADERS:
                raise ConfigError(
                    f"recipe may only mutate {_MUTABLE_HEADERS}, got {header!r}"
                )
        for op in ops:
            if not op or op[0] not in _RECIPE_OPS:
                raise ConfigError(
                    f"recipe ops limited to {sorted(_RECIPE_OPS)}, got {op!r}"
                )
        self.verdict = verdict
        self.mutations = tuple(mutations)
        self.counters = tuple(counters)
        self.ops = tuple(ops)
        self.size_delta = sum(_RECIPE_OPS[op[0]] for op in self.ops)
        # Replay is the fast path's hottest call: group mutations by
        # header so each header property is resolved once per packet, and
        # lazily bind counter objects per application so replay skips the
        # name lookup.  Grouping preserves per-header field order; fields
        # of different headers are independent, so the final packet state
        # is unchanged.
        grouped: dict[str, list[tuple[str, int]]] = {}
        for header, field, value in self.mutations:
            grouped.setdefault(header, []).append((field, value))
        self._grouped = tuple(
            (header, tuple(fields)) for header, fields in grouped.items()
        )
        self._bound_app: "PPEApplication | None" = None
        self._bound_counters: tuple = ()

    def apply(
        self, packet: "Packet", app: "PPEApplication", size: int | None = None
    ) -> "Verdict":
        """Replay the decision onto ``packet``; returns the verdict.

        ``size`` is an optional precomputed *arrival* wire length for the
        counter bumps; field mutations never change the frame length and
        the recipe's own ``size_delta`` accounts for its structural ops,
        so the post-op size is ``size + size_delta`` without re-measuring
        the packet.
        """
        self._replay(packet)
        if self.counters:
            if size is None:
                size = packet.wire_len
            else:
                size += self.size_delta
            if app is not self._bound_app:
                self._bound_app = app
                self._bound_counters = tuple(
                    app.counter(name) for name in self.counters
                )
            for counter in self._bound_counters:
                counter.packets += 1
                counter.bytes += size
        return self.verdict

    def apply_burst(
        self, packet: "Packet", app: "PPEApplication", size: int, count: int
    ) -> "Verdict":
        """Replay onto one template standing for ``count`` identical frames.

        The compiled engine's struct-of-arrays lane carries a burst of
        same-flow, same-size frames as a single template packet; the
        mutations land once on that template and the counter bumps are
        fused into one ``+= count`` — arithmetically identical to
        ``count`` calls of :meth:`apply` on per-frame copies.  ``size``
        is the per-frame *arrival* wire length; counters see the post-op
        size, as on the slow path.
        """
        self._replay(packet)
        if self.counters:
            if app is not self._bound_app:
                self._bound_app = app
                self._bound_counters = tuple(
                    app.counter(name) for name in self.counters
                )
            for counter in self._bound_counters:
                counter.packets += count
                counter.bytes += count * (size + self.size_delta)
        return self.verdict

    def _replay(self, packet: "Packet") -> None:
        """The structural ops, then the field stores, onto ``packet``."""
        for op in self.ops:
            if op[0] == "vlan_push":
                _, vid, pcp, service = op
                vlan_push(packet, vid, pcp=pcp, service=service)
            else:
                vlan_pop(packet)
        for header_name, fields in self._grouped:
            header = getattr(packet, header_name)
            if header is None:  # pragma: no cover - key/recipe mismatch guard
                raise ConfigError(
                    f"recipe expects a {header_name} header the packet lacks"
                )
            for field, value in fields:
                setattr(header, field, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowRecipe({self.verdict}, mutations={self.mutations}, "
            f"counters={self.counters})"
        )


# ----------------------------------------------------------------------
# The recorder: a flow's recipe is what process() did to its first frame
# ----------------------------------------------------------------------
class _Unrecordable(Exception):
    """Raised inside a probe by a read or an emit no recipe can replay."""


class _ProbeContext:
    """The :class:`~repro.core.ppe.PPEContext` a probe hands to ``process``:
    what every frame of a flow shares.  The clock and the queue depth
    differ per frame and an emit is beyond a recipe, so each ends the probe.
    """

    __slots__ = ("direction", "device_id")

    def __init__(self, direction: "Direction", device_id: int) -> None:
        self.direction = direction
        self.device_id = device_id

    @property
    def time_ns(self) -> int:
        raise _Unrecordable

    queue_depth = time_ns

    def emit(self, packet: "Packet", direction: "Direction") -> None:
        raise _Unrecordable


# The running probe's field stores, in order: ``(header, field, value)``.
_writes: list[tuple[object, str, object]] = []
# Per header class, a subclass with the same slots whose stores journal
# (``isinstance`` holds, an exact ``type()`` test in ``process`` does not);
# its ``copy`` is the class's own, so a header copied in ``process`` is plain.
_RECORDING: dict[type, type] = {}


def _record_write(header: object, field: str, value: object) -> None:
    _writes.append((header, field, value))
    object.__setattr__(header, field, value)


def _recording(cls: type) -> type:
    recording = _RECORDING.get(cls)
    if recording is None:
        namespace = {"__slots__": (), "__setattr__": _record_write, "copy": cls.copy}
        recording = _RECORDING[cls] = type(cls.__name__, (cls,), namespace)
    return recording


def record_recipe(
    app: "PPEApplication", packet: "Packet", direction: "Direction", device_id: int = 0
) -> FlowRecipe | None:
    """The recipe that replays ``app.process`` on ``packet``, or None.

    ``process`` runs once on a copy of ``packet`` whose headers journal
    their field stores: the recipe holds the stores, not a before/after
    diff, so a store of an unchanged value still lands on later frames.
    Leading VLAN tags pushed or popped become ops, which own
    ``eth.ethertype`` and re-derive it per frame as ``vlan_push`` /
    ``vlan_pop`` do.  Counter bumps become the recipe's counters; the
    probe's own are undone, and a counter it created and bumped goes.

    None (per-frame ``process``, no cache entry) when the call reads
    ``ctx.time_ns`` / ``ctx.queue_depth``, emits, writes the tables, stores
    into a header no ``packet.<name>`` of :data:`_MUTABLE_HEADERS` reaches,
    changes the payload or the stack beyond leading VLAN tags, or counts
    other than the processed frame's wire length.
    """
    probe = packet.copy()
    arrived = list(probe.headers)
    for header in arrived:
        header.__class__ = _recording(type(header))
    ethertype = getattr(arrived[0], "ethertype", None) if arrived else None
    counters = app.counters
    saved = {name: (c.packets, c.bytes) for name, c in counters.items()}
    generation = app.tables.generation()
    _writes.clear()
    try:
        verdict = app.process(probe, _ProbeContext(direction, device_id))
    except _Unrecordable:
        verdict = None
    finally:
        for header in arrived:
            object.__setattr__(header, "__class__", type(header).__base__)
        writes = _writes[:]
        _writes.clear()
        bumps = _undo_bumps(counters, saved)
    if (
        verdict is None
        or app.tables.generation() != generation
        or probe.payload is not packet.payload
    ):
        return None
    ops = _vlan_ops(arrived, probe.headers, ethertype)
    mutations = None if ops is None else _mutations(probe, writes, bool(ops))
    if mutations is None:
        return None
    size = probe.wire_len
    names: list[str] = []
    for name, packets, nbytes in bumps:
        if packets < 0 or nbytes != packets * size:
            return None
        names += [name] * packets
    recipe = FlowRecipe(verdict, mutations, tuple(names), ops)
    if size != packet.wire_len + recipe.size_delta:
        return None  # a header changed its own length
    return recipe


def _undo_bumps(counters: dict, saved: dict) -> list[tuple[str, int, int]]:
    """Restore the probe's counters; each bumped one's packet/byte deltas."""
    bumps = []
    for name, counter in list(counters.items()):
        packets, nbytes = saved.get(name, (0, 0))
        delta = (name, counter.packets - packets, counter.bytes - nbytes)
        if delta[1] or delta[2]:
            bumps.append(delta)
            if name in saved:
                counter.packets, counter.bytes = packets, nbytes
            else:
                del counters[name]
    return bumps


def _leading_tags(headers: list) -> int:
    """How many VLAN tags sit right behind a leading Ethernet header."""
    count = 0
    if headers and isinstance(headers[0], Ethernet):
        while count + 1 < len(headers) and isinstance(headers[count + 1], VLAN):
            count += 1
    return count


def _vlan_ops(before: list, after: list, ethertype: int | None) -> tuple | None:
    """The VLAN pops and pushes that turn ``before`` into ``after``, or None.

    Both are the probe's header stacks.  Only the leading tags may change:
    every other header must be the very object it was, in place.  The ops
    pop the outermost old tags, then push the new ones innermost first,
    each tag's service bit read off the ethertype that encloses it.
    """
    n, m = _leading_tags(before), _leading_tags(after)
    if list(map(id, before[:1] + before[1 + n :])) != list(
        map(id, after[:1] + after[1 + m :])
    ):
        return None
    if not n and not m:
        return ()
    old, new = before[1 : 1 + n], after[1 : 1 + m]
    kept = 0
    while kept < min(n, m) and new[m - 1 - kept] is old[n - 1 - kept]:
        kept += 1
    pops, pushed = n - kept, new[: m - kept]
    if set(map(id, pushed)) & set(map(id, old)):
        return None  # an old tag moved
    # The ethertype the pops leave in eth: after the pushes, the innermost
    # new tag (or eth itself, with none) must still carry it.
    inner = old[pops - 1].ethertype if pops else ethertype
    ops: list[tuple] = [("vlan_pop",)] * pops
    if (pushed[-1] if pushed else after[0]).ethertype != inner:
        return None
    for tag, enclosing in reversed(list(zip(pushed, [after[0], *pushed[:-1]]))):
        tpid = enclosing.ethertype
        if tag.dei or tpid not in (EtherType.VLAN, EtherType.QINQ):
            return None
        ops.append(("vlan_push", tag.vid, tag.pcp, tpid == EtherType.QINQ))
    return tuple(ops)


def _mutations(packet: "Packet", writes: list, with_ops: bool) -> tuple | None:
    """The journal as ``(header, field, value)`` triples, or None.

    Each store names its header by the accessor that reaches it on the
    processed frame; the last store to a field wins.  With VLAN ops the
    ops own ``eth.ethertype``, so its stores are dropped.
    """
    if not writes:
        return ()
    owners = {}
    for name in _MUTABLE_HEADERS:
        header = getattr(packet, name)
        if header is not None:
            owners[id(header)] = name
    fields: dict[tuple[str, str], object] = {}
    for header, field, value in writes:
        name = owners.get(id(header))
        if name is None:
            return None
        if not (with_ops and name == "eth" and field == "ethertype"):
            fields[name, field] = value
    return tuple((name, field, value) for (name, field), value in fields.items())


class FlowCache:
    """Bounded exact-match LRU cache of :class:`FlowRecipe` entries.

    Entries are stamped with the application's table generation at insert
    time; a lookup under a different generation is a miss that also drops
    the stale entry (control-plane writes invalidate the cache).
    """

    __slots__ = (
        "name",
        "capacity",
        "_entries",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, capacity: int = DEFAULT_FLOW_CACHE_ENTRIES, name: str = "flow_cache") -> None:
        if capacity <= 0:
            raise ConfigError("flow cache needs positive capacity")
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[int, FlowRecipe]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def lookup(self, key: Hashable, generation: int) -> FlowRecipe | None:
        """Cached recipe for ``key`` at the current table ``generation``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamped, recipe = entry
        if stamped != generation:
            # A control-plane write happened since this flow was decided:
            # the cached verdict may be stale, re-run the slow path.
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return recipe

    def insert(self, key: Hashable, recipe: FlowRecipe, generation: int) -> None:
        """Install ``key -> recipe``; evicts the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = (generation, recipe)

    def invalidate(self) -> int:
        """Flush every entry (e.g. on application reload); returns count."""
        flushed = len(self._entries)
        self._entries.clear()
        self.invalidations += flushed
        return flushed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def metric_values(self) -> dict[str, int | float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowCache({self.name}: {len(self)}/{self.capacity}, "
            f"{self.hits} hits / {self.misses} misses)"
        )
