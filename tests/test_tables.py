"""Match-action tables: semantics, capacity, atomicity, priorities."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ExactTable, LPMTable, TableRegistry, TernaryTable
from repro.errors import TableError


class TestExactTable:
    def test_insert_lookup_delete(self):
        table = ExactTable("t", 8)
        table.insert("key", "value")
        assert table.lookup("key") == "value"
        table.delete("key")
        assert table.lookup("key") is None

    def test_capacity_enforced(self):
        table = ExactTable("t", 2)
        table.insert(1, "a")
        table.insert(2, "b")
        with pytest.raises(TableError, match="full"):
            table.insert(3, "c")

    def test_replace_existing_at_capacity(self):
        table = ExactTable("t", 1)
        table.insert(1, "a")
        table.insert(1, "b")  # update is allowed at capacity
        assert table.lookup(1) == "b"

    def test_no_replace_flag(self):
        table = ExactTable("t", 4)
        table.insert(1, "a")
        with pytest.raises(TableError, match="duplicate"):
            table.insert(1, "b", replace=False)

    def test_delete_missing(self):
        with pytest.raises(TableError, match="no such key"):
            ExactTable("t", 4).delete(99)

    def test_hit_miss_stats(self):
        table = ExactTable("t", 4)
        table.insert(1, "a")
        table.lookup(1)
        table.lookup(2)
        stats = table.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_atomic_replace(self):
        table = ExactTable("t", 4)
        table.insert(1, "a")
        generation = table.generation
        table.atomic_replace({2: "b", 3: "c"})
        assert table.lookup(1) is None
        assert table.lookup(2) == "b"
        assert table.generation == generation + 1

    def test_atomic_replace_capacity(self):
        with pytest.raises(TableError):
            ExactTable("t", 1).atomic_replace({1: "a", 2: "b"})

    def test_zero_capacity_rejected(self):
        with pytest.raises(TableError):
            ExactTable("t", 0)


class TestLPMTable:
    def test_longest_prefix_wins(self):
        table = LPMTable("routes", 8, key_bits=32)
        table.insert(0x0A000000, 8, "broad")
        table.insert(0x0A0A0000, 16, "narrow")
        assert table.lookup(0x0A0A0101) == "narrow"
        assert table.lookup(0x0A010101) == "broad"
        assert table.lookup(0x0B000000) is None

    def test_default_route(self):
        table = LPMTable("routes", 8)
        table.insert(0, 0, "default")
        assert table.lookup(0xDEADBEEF) == "default"

    def test_delete(self):
        table = LPMTable("routes", 8)
        table.insert(0x0A000000, 8, "x")
        table.delete(0x0A000000, 8)
        assert table.lookup(0x0A000001) is None
        with pytest.raises(TableError):
            table.delete(0x0A000000, 8)

    def test_hit_miss_stats(self):
        # One count per lookup, however many prefix lengths it tries.
        table = LPMTable("routes", 8, key_bits=32)
        table.insert(0x0A000000, 8, "broad")
        table.insert(0x0A0A0000, 16, "narrow")
        table.lookup(0x0A0A0101)
        table.lookup(0x0A010101)
        table.lookup(0x0B000000)
        stats = table.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_prefix_length_validation(self):
        table = LPMTable("routes", 8, key_bits=32)
        with pytest.raises(TableError):
            table.insert(0, 33, "x")

    def test_capacity(self):
        table = LPMTable("routes", 1)
        table.insert(1 << 24, 8, "a")
        with pytest.raises(TableError):
            table.insert(2 << 24, 8, "b")

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)),
            min_size=1,
            max_size=24,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_ipaddress_reference(self, prefixes, key):
        table = LPMTable("ref", 64, key_bits=32)
        networks = []
        for value, length in prefixes:
            network = ipaddress.ip_network((value, length), strict=False)
            table.insert(int(network.network_address), length, str(network))
            networks.append(network)
        address = ipaddress.ip_address(key)
        matching = [n for n in networks if address in n]
        expected = str(max(matching, key=lambda n: n.prefixlen)) if matching else None
        assert table.lookup(key) == expected


class TestTernaryTable:
    def test_priority_order(self):
        table = TernaryTable("acl", 8)
        table.insert(0b1010, 0b1111, priority=1, action="low")
        table.insert(0b1010, 0b1110, priority=10, action="high")
        assert table.lookup(0b1010) == "high"

    def test_first_match_on_tie(self):
        table = TernaryTable("acl", 8)
        table.insert(0, 0, priority=5, action="first")
        table.insert(0, 0, priority=5, action="second")
        assert table.lookup(12345) == "first"

    def test_mask_semantics(self):
        table = TernaryTable("acl", 8)
        table.insert(0xAB00, 0xFF00, priority=0, action="match-high-byte")
        assert table.lookup(0xABCD) == "match-high-byte"
        assert table.lookup(0xACCD) is None

    def test_hit_miss_stats(self):
        # One count per lookup, however many entries it tries.
        table = TernaryTable("acl", 8)
        table.insert(0xAB00, 0xFF00, priority=1, action="high-byte")
        table.insert(0x00CD, 0x00FF, priority=0, action="low-byte")
        table.lookup(0xABCD)
        table.lookup(0x11CD)
        table.lookup(0x1111)
        stats = table.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_atomic_replace_sorts(self):
        table = TernaryTable("acl", 8)
        table.atomic_replace(
            [(0, 0, 1, "low"), (0xFF, 0xFF, 100, "high")]
        )
        assert table.lookup(0xFF) == "high"
        assert table.lookup(0x01) == "low"

    def test_clear(self):
        table = TernaryTable("acl", 8)
        table.insert(0, 0, 0, "x")
        table.clear()
        assert len(table) == 0

    def test_capacity(self):
        table = TernaryTable("acl", 1)
        table.insert(0, 0, 0, "a")
        with pytest.raises(TableError):
            table.insert(1, 1, 0, "b")
        with pytest.raises(TableError):
            table.atomic_replace([(0, 0, 0, "a"), (1, 1, 0, "b")])


class TestRegistry:
    def test_register_and_get(self):
        registry = TableRegistry()
        table = ExactTable("nat", 4)
        registry.register(table)
        assert registry.get("nat") is table
        assert registry.names() == ["nat"]

    def test_duplicate_rejected(self):
        registry = TableRegistry()
        registry.register(ExactTable("nat", 4))
        with pytest.raises(TableError, match="duplicate"):
            registry.register(ExactTable("nat", 4))

    def test_unknown_table(self):
        with pytest.raises(TableError, match="unknown"):
            TableRegistry().get("nope")

    def test_stats(self):
        registry = TableRegistry()
        registry.register(ExactTable("a", 4))
        registry.register(LPMTable("b", 4))
        stats = registry.stats()
        assert set(stats) == {"a", "b"}
