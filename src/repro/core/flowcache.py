"""Flow cache: the PPE's exact-match fast path.

hXDP and PsPIN both get their speed from the same trick: once the general
pipeline has decided what to do with a flow, repeat packets of that flow
take a compiled fast path that skips the full program.  Here the fast path
is modeled as an LRU exact-match cache in front of ``app.process``: the
slow path produces a :class:`FlowRecipe` — the verdict plus a replayable
mutation/counter recipe — and subsequent packets of the same flow replay
the recipe without re-entering the application.

Correctness contract (enforced by ``tests/test_compiled_differential.py``):
replaying a recipe is bit-identical to running the slow path.  Two
mechanisms keep that true:

* applications only return a recipe from :meth:`PPEApplication.decide`
  when their verdict is a pure function of the flow key (time-varying
  programs like the token-bucket policer never do);
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
from ..packet import vlan_pop, vlan_push

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..packet import Packet
    from .ppe import PPEApplication, Verdict

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
        self._replay_ops(packet)
        for header_name, fields in self._grouped:
            header = getattr(packet, header_name)
            if header is None:  # pragma: no cover - key/recipe mismatch guard
                raise ConfigError(
                    f"recipe expects a {header_name} header the packet lacks"
                )
            for field, value in fields:
                setattr(header, field, value)
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
        self._replay_ops(packet)
        for header_name, fields in self._grouped:
            header = getattr(packet, header_name)
            if header is None:  # pragma: no cover - key/recipe mismatch guard
                raise ConfigError(
                    f"recipe expects a {header_name} header the packet lacks"
                )
            for field, value in fields:
                setattr(header, field, value)
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

    def _replay_ops(self, packet: "Packet") -> None:
        for op in self.ops:
            if op[0] == "vlan_push":
                _, vid, pcp, service = op
                vlan_push(packet, vid, pcp=pcp, service=service)
            else:
                vlan_pop(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowRecipe({self.verdict}, mutations={self.mutations}, "
            f"counters={self.counters})"
        )


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
