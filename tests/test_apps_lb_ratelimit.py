"""Load balancer and rate limiter applications."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import Backend, L4LoadBalancer, RateLimiter, TokenBucket, flow_hash
from repro.core import Verdict
from repro.errors import ConfigError
from repro.packet import make_tcp, make_udp
from tests.conftest import make_ctx

BACKENDS = [
    Backend("192.168.1.1", "02:be:00:00:00:01"),
    Backend("192.168.1.2", "02:be:00:00:00:02"),
    Backend("192.168.1.3", "02:be:00:00:00:03"),
]


class TestLoadBalancer:
    @pytest.fixture
    def balancer(self):
        lb = L4LoadBalancer(capacity=8)
        lb.add_service("10.10.10.10", 80, 6, BACKENDS)
        return lb

    def test_steers_to_backend(self, balancer):
        packet = make_tcp(dst_ip="10.10.10.10", dport=80)
        assert balancer.process(packet, make_ctx()) is Verdict.PASS
        assert packet.ipv4.dst_ip in {b.ip for b in BACKENDS}
        assert packet.eth.dst_mac in {b.mac for b in BACKENDS}

    def test_non_vip_traffic_untouched(self, balancer):
        packet = make_tcp(dst_ip="9.9.9.9", dport=80)
        balancer.process(packet, make_ctx())
        assert packet.ipv4.dst_ip == "9.9.9.9"
        assert balancer.counter("no_vip").packets == 1

    def test_flow_affinity(self, balancer):
        # Same 5-tuple always lands on the same backend.
        choices = set()
        for _ in range(10):
            packet = make_tcp(src_ip="10.0.0.7", sport=5555, dst_ip="10.10.10.10", dport=80)
            balancer.process(packet, make_ctx())
            choices.add(packet.ipv4.dst_ip)
        assert len(choices) == 1

    def test_flows_spread_across_backends(self, balancer):
        seen = set()
        for sport in range(200):
            packet = make_tcp(sport=10_000 + sport, dst_ip="10.10.10.10", dport=80)
            balancer.process(packet, make_ctx())
            seen.add(packet.ipv4.dst_ip)
        assert seen == {b.ip for b in BACKENDS}

    def test_weights_bias_distribution(self):
        lb = L4LoadBalancer(capacity=8, ring_slots=256)
        heavy = Backend("192.168.1.1", "02:be:00:00:00:01", weight=9)
        light = Backend("192.168.1.2", "02:be:00:00:00:02", weight=1)
        lb.add_service("10.10.10.10", 80, 6, [heavy, light])
        counts = {heavy.ip: 0, light.ip: 0}
        for sport in range(1000):
            packet = make_tcp(sport=sport + 1024, dst_ip="10.10.10.10", dport=80)
            lb.process(packet, make_ctx())
            counts[packet.ipv4.dst_ip] += 1
        assert counts[heavy.ip] > 5 * counts[light.ip]

    def test_empty_backends_rejected(self):
        with pytest.raises(ConfigError):
            L4LoadBalancer().add_service("1.1.1.1", 80, 6, [])

    def test_invalid_weight(self):
        with pytest.raises(ConfigError):
            Backend("1.1.1.1", "02:00:00:00:00:01", weight=0)

    @given(
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**32 - 1),
            st.integers(0, 255),
            st.integers(0, 65535),
            st.integers(0, 65535),
        )
    )
    def test_flow_hash_deterministic(self, tuple5):
        assert flow_hash(tuple5) == flow_hash(tuple5)


class TestTokenBucket:
    def test_conforms_within_burst(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)
        assert bucket.conforms(1_000, now_ns=0)
        assert not bucket.conforms(1, now_ns=0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)  # 1000 B/s
        assert bucket.conforms(1_000, now_ns=0)
        assert not bucket.conforms(500, now_ns=100_000_000)  # +0.1s -> 100 B
        assert bucket.conforms(500, now_ns=500_000_000)  # +0.5s -> 500 B

    def test_bucket_capped_at_burst(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=100)
        bucket.conforms(0, now_ns=10_000_000_000)  # long idle
        assert bucket.tokens == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_bps=0, burst_bytes=100)

    @pytest.mark.parametrize("field", ["rate_bps", "burst_bytes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_or_depth_is_refused_by_name(self, field, value):
        # Unchecked, such a bucket conforms every frame or none.
        params = {"rate_bps": 8_000, "burst_bytes": 100, field: value}
        with pytest.raises(ConfigError, match=field):
            TokenBucket(**params)

    @given(st.lists(st.integers(1, 1500), min_size=1, max_size=200))
    def test_never_exceeds_rate_plus_burst(self, sizes):
        # Invariant: accepted bytes <= burst + rate * elapsed.
        rate_bps, burst = 80_000, 5_000  # 10 kB/s
        bucket = TokenBucket(rate_bps=rate_bps, burst_bytes=burst)
        interval_ns = 1_000_000  # 1 ms between packets
        accepted = 0
        now = 0
        for size in sizes:
            now += interval_ns
            if bucket.conforms(size, now):
                accepted += size
        elapsed_s = now / 1e9
        assert accepted <= burst + rate_bps / 8 * elapsed_s + 1


class TestRateLimiter:
    def test_policing(self):
        limiter = RateLimiter(capacity=8)
        limiter.add_limit("10.0.0.0", 8, rate_bps=8_000, burst_bytes=200)
        first = make_udp(src_ip="10.0.0.1", payload=b"x" * 100)
        verdict1 = limiter.process(first, make_ctx(time_ns=0))
        assert verdict1 is Verdict.PASS
        flood = make_udp(src_ip="10.0.0.1", payload=b"x" * 100)
        verdict2 = limiter.process(flood, make_ctx(time_ns=1_000))
        assert verdict2 is Verdict.DROP
        assert limiter.counter("policed").packets == 1

    def test_unmetered_default_permit(self):
        limiter = RateLimiter()
        assert limiter.process(make_udp(src_ip="99.0.0.1"), make_ctx()) is Verdict.PASS

    def test_unmetered_default_deny(self):
        limiter = RateLimiter(default_permit=False)
        assert limiter.process(make_udp(src_ip="99.0.0.1"), make_ctx()) is Verdict.DROP

    def test_per_prefix_isolation(self):
        limiter = RateLimiter(capacity=8)
        limiter.add_limit("10.0.0.1", 32, rate_bps=8, burst_bytes=64)
        limiter.add_limit("10.0.0.2", 32, rate_bps=8_000_000, burst_bytes=100_000)
        starved = make_udp(src_ip="10.0.0.1", payload=b"x" * 200)
        rich = make_udp(src_ip="10.0.0.2", payload=b"x" * 200)
        assert limiter.process(starved, make_ctx()) is Verdict.DROP
        assert limiter.process(rich, make_ctx()) is Verdict.PASS

    def test_recovers_after_idle(self):
        limiter = RateLimiter(capacity=4)
        limiter.add_limit("10.0.0.0", 24, rate_bps=800_000, burst_bytes=200)
        packet = make_udp(src_ip="10.0.0.1", payload=b"x" * 100)
        assert limiter.process(packet, make_ctx(time_ns=0)) is Verdict.PASS
        packet2 = make_udp(src_ip="10.0.0.1", payload=b"x" * 100)
        assert limiter.process(packet2, make_ctx(time_ns=100)) is Verdict.DROP
        packet3 = make_udp(src_ip="10.0.0.1", payload=b"x" * 100)
        # 100 kB/s -> 160 B refilled in 1.6 ms.
        assert limiter.process(packet3, make_ctx(time_ns=2_000_000)) is Verdict.PASS
