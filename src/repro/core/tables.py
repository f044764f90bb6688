"""Runtime match-action tables with control-plane update semantics.

These are the functional counterparts of the estimator's table primitives:
the datapath looks keys up per packet, the embedded control plane performs
"atomic, runtime updates at line rate" (§4.2).  Atomicity is modeled with a
generation counter: every mutation happens between packets (the simulator
is single-threaded per event), and ``atomic_replace`` swaps entire contents
in one step, as a real double-buffered table would.
"""

from __future__ import annotations

from typing import Any, Generic, Hashable, Iterator, TypeVar

from ..errors import TableError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class Table(Generic[K, V]):
    """Base class: bounded capacity, hit/miss stats, generation counter."""

    kind = "abstract"

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise TableError(f"table {name!r} needs positive capacity")
        self.name = name
        self.capacity = capacity
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self._on_mutate: Any = None
        self._before_mutate: Any = None

    def _bump(self) -> None:
        self.generation += 1
        if self._on_mutate is not None:
            self._on_mutate()

    def _pre_mutate(self) -> None:
        """Fire the pre-mutation hook (fast-engine drain point).

        "Atomic, runtime updates" happen *between* packets.  In the fast
        engine, frames whose virtual service already finished may still be
        sitting unprocessed in the current group; this hook lets the engine
        drain them against the pre-write table state, so a control-plane
        write never time-travels into decisions that virtually preceded it.
        Fires before any state change — a mutator that subsequently raises
        has merely drained early, which is always safe.
        """
        if self._before_mutate is not None:
            self._before_mutate()

    def __len__(self) -> int:
        raise NotImplementedError

    def lookup(self, key: K) -> V | None:
        """The value ``key`` matches, or None; each lookup counts itself
        as a hit or a miss (a None value is a miss)."""
        raise NotImplementedError

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "generation": self.generation,
        }


class ExactTable(Table[K, V]):
    """Hash-addressed exact-match table (the NAT/firewall workhorse)."""

    kind = "exact"

    def __init__(self, name: str, capacity: int) -> None:
        super().__init__(name, capacity)
        self._entries: dict[K, V] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def insert(self, key: K, value: V, replace: bool = True) -> None:
        """Add or update an entry; enforces capacity."""
        self._pre_mutate()
        if key not in self._entries:
            if len(self._entries) >= self.capacity:
                raise TableError(
                    f"table {self.name!r} full ({self.capacity} entries)"
                )
        elif not replace:
            raise TableError(f"duplicate key in table {self.name!r}: {key!r}")
        self._entries[key] = value
        self._bump()

    def delete(self, key: K) -> None:
        """Remove an entry; missing keys raise."""
        self._pre_mutate()
        try:
            del self._entries[key]
        except KeyError:
            raise TableError(f"no such key in table {self.name!r}: {key!r}") from None
        self._bump()

    def lookup(self, key: K) -> V | None:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def atomic_replace(self, entries: dict[K, V]) -> None:
        """Swap the whole table contents in one generation step."""
        self._pre_mutate()
        if len(entries) > self.capacity:
            raise TableError(
                f"replacement set ({len(entries)}) exceeds capacity "
                f"({self.capacity}) of table {self.name!r}"
            )
        self._entries = dict(entries)
        self._bump()

    def items(self) -> Iterator[tuple[K, V]]:
        return iter(list(self._entries.items()))


class LPMTable(Table[int, V]):
    """Longest-prefix-match table over fixed-width integer keys."""

    kind = "lpm"

    def __init__(self, name: str, capacity: int, key_bits: int = 32) -> None:
        super().__init__(name, capacity)
        if key_bits <= 0:
            raise TableError("key width must be positive")
        self.key_bits = key_bits
        # prefix_len -> {masked_prefix: value}
        self._by_len: dict[int, dict[int, V]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _mask(self, prefix_len: int) -> int:
        if not 0 <= prefix_len <= self.key_bits:
            raise TableError(
                f"prefix length {prefix_len} out of range for "
                f"{self.key_bits}-bit keys"
            )
        if prefix_len == 0:
            return 0
        return ((1 << prefix_len) - 1) << (self.key_bits - prefix_len)

    def insert(self, prefix: int, prefix_len: int, value: V) -> None:
        """Insert ``prefix/prefix_len -> value``."""
        self._pre_mutate()
        mask = self._mask(prefix_len)
        bucket = self._by_len.setdefault(prefix_len, {})
        key = prefix & mask
        if key not in bucket:
            if self._size >= self.capacity:
                raise TableError(f"table {self.name!r} full ({self.capacity})")
            self._size += 1
        bucket[key] = value
        self._bump()

    def delete(self, prefix: int, prefix_len: int) -> None:
        self._pre_mutate()
        mask = self._mask(prefix_len)
        bucket = self._by_len.get(prefix_len, {})
        key = prefix & mask
        if key not in bucket:
            raise TableError(
                f"no such prefix in table {self.name!r}: "
                f"{prefix:#x}/{prefix_len}"
            )
        del bucket[key]
        self._size -= 1
        self._bump()

    def lookup(self, key: int) -> V | None:
        for prefix_len in sorted(self._by_len, reverse=True):
            bucket = self._by_len[prefix_len]
            if not bucket:
                continue
            candidate = bucket.get(key & self._mask(prefix_len))
            if candidate is not None:
                self.hits += 1
                return candidate
        self.misses += 1
        return None


class TernaryEntry(Generic[V]):
    """One TCAM entry: value/mask pair with priority."""

    __slots__ = ("value", "mask", "priority", "action")

    def __init__(self, value: int, mask: int, priority: int, action: V) -> None:
        self.value = value & mask
        self.mask = mask
        self.priority = priority
        self.action = action

    def matches(self, key: int) -> bool:
        return (key & self.mask) == self.value


class TernaryTable(Table[int, V]):
    """Priority-ordered ternary (value/mask) table — ACL semantics.

    Highest priority wins; ties broken by insertion order (first wins),
    matching how rules compile into a TCAM.
    """

    kind = "ternary"

    def __init__(self, name: str, capacity: int, key_bits: int = 104) -> None:
        super().__init__(name, capacity)
        self.key_bits = key_bits
        self._entries: list[TernaryEntry[V]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, value: int, mask: int, priority: int, action: V) -> None:
        self._pre_mutate()
        if len(self._entries) >= self.capacity:
            raise TableError(f"table {self.name!r} full ({self.capacity})")
        entry = TernaryEntry(value, mask, priority, action)
        # Stable insert: maintain descending priority, earlier first on tie.
        index = len(self._entries)
        for i, existing in enumerate(self._entries):
            if existing.priority < priority:
                index = i
                break
        self._entries.insert(index, entry)
        self._bump()

    def clear(self) -> None:
        self._pre_mutate()
        self._entries.clear()
        self._bump()

    def atomic_replace(
        self, entries: list[tuple[int, int, int, V]]
    ) -> None:
        """Replace all rules in one step (rule-set push)."""
        self._pre_mutate()
        if len(entries) > self.capacity:
            raise TableError(
                f"replacement set ({len(entries)}) exceeds capacity "
                f"({self.capacity}) of table {self.name!r}"
            )
        staged: list[TernaryEntry[V]] = []
        for value, mask, priority, action in entries:
            staged.append(TernaryEntry(value, mask, priority, action))
        staged.sort(key=lambda e: -e.priority)
        self._entries = staged
        self._bump()

    def lookup(self, key: int) -> V | None:
        action = None
        for entry in self._entries:
            if entry.matches(key):
                action = entry.action
                break
        if action is None:
            self.misses += 1
        else:
            self.hits += 1
        return action

    def entries(self) -> list[TernaryEntry[V]]:
        return list(self._entries)


class TableRegistry:
    """Named tables an application exposes to the control plane."""

    def __init__(self) -> None:
        self._tables: dict[str, Table[Any, Any]] = {}
        self._generation = 0
        self.on_before_mutate: Any = None

    def register(self, table: Table[Any, Any]) -> None:
        if table.name in self._tables:
            raise TableError(f"duplicate table name {table.name!r}")
        self._tables[table.name] = table
        # Keep the registry-wide generation a running sum so the per-packet
        # flow-cache validity check is O(1) rather than a sum over tables.
        self._generation += table.generation
        table._on_mutate = self._count_mutation
        table._before_mutate = self._fire_before_mutate

    def _count_mutation(self) -> None:
        self._generation += 1

    def _fire_before_mutate(self) -> None:
        if self.on_before_mutate is not None:
            self.on_before_mutate()

    def get(self, name: str) -> Table[Any, Any]:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(
                f"unknown table {name!r}; known: {sorted(self._tables)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._tables)

    def generation(self) -> int:
        """Sum of all table generations — the flow-cache validity stamp.

        Any control-plane mutation of any registered table bumps this,
        which conservatively invalidates every cached fast-path decision
        (see :class:`repro.core.flowcache.FlowCache`).
        """
        return self._generation

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: table.stats() for name, table in self._tables.items()}
