"""The typed NFV deployment API: specs, validation, pricing, feasibility."""

import pytest

from repro.apps import Passthrough
from repro.core.shells import PROTOTYPE_SHELL
from repro.errors import ConfigError, ResourceError
from repro.fpga import estimator, get_device
from repro.nfv import (
    Deployment,
    SteeringMatch,
    TenantSpec,
    check_deployment,
    default_nfv_tenants,
    price_deployment,
)
from repro.packet import make_udp, make_udp6


class TestSteeringMatch:
    def test_wildcard_matches_everything(self):
        match = SteeringMatch()
        assert match.is_wildcard
        assert match.matches(make_udp())
        assert match.matches(make_udp6())

    def test_dport_match(self):
        match = SteeringMatch(udp_dport=9099)
        assert match.matches(make_udp(dport=9099))
        assert not match.matches(make_udp(dport=53))

    def test_prefix_match(self):
        match = SteeringMatch(dst_ip="10.1.0.0", prefix_len=16)
        assert match.matches(make_udp(dst_ip="10.1.2.3"))
        assert not match.matches(make_udp(dst_ip="10.2.0.1"))

    def test_non_ip_only_matches_wildcard(self):
        frame = make_udp()
        frame.headers = frame.headers[:1]  # bare Ethernet
        assert SteeringMatch().matches(frame)
        assert not SteeringMatch(udp_dport=9099).matches(frame)

    def test_rejects_bad_port_and_prefix(self):
        with pytest.raises(ConfigError):
            SteeringMatch(udp_dport=70000)
        with pytest.raises(ConfigError):
            SteeringMatch(dst_ip="10.0.0.1", prefix_len=33)


class TestTenantSpec:
    def test_validates_name_and_share(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="bad name", app="nat")
        with pytest.raises(ConfigError):
            TenantSpec(name="t", app="nat", share=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="t", app="nat", share=1.5)

    def test_builds_named_or_instance_app(self):
        by_name = TenantSpec(name="t", app="passthrough")
        assert by_name.build_app().name == "passthrough"
        instance = Passthrough()
        by_instance = TenantSpec(name="t", app=instance)
        assert by_instance.build_app() is instance
        assert by_instance.app_name == "passthrough"

    def test_round_trips_through_dict(self):
        spec = TenantSpec.from_dict(
            {"name": "scrub", "app": "sanitizer",
             "match": {"udp_dport": 9099}, "share": 0.5}
        )
        assert spec.match.udp_dport == 9099
        assert TenantSpec.from_dict(spec.describe()) == spec

    @pytest.mark.parametrize(
        "payload, needle",
        [
            ({"name": "t", "app": "int", "bogus": 1}, "bogus"),
            ({"name": "t", "app": "int", "engine": "warp"}, "engine"),
            ({"app": "int"}, "name"),
            ({"name": "t"}, "app"),
            (["t", "int"], "JSON object"),
            ({"name": "t", "app": "int", "share": "half"}, "malformed tenant"),
            (
                {"name": "scrub", "app": "sanitizer", "match": {"dport": 9099}},
                r"unknown tenant 'scrub' match field\(s\): \['dport'\]",
            ),
            (
                {"name": "scrub", "app": "sanitizer", "match": {"udp_dport": "9099"}},
                "tenant 'scrub' match field 'udp_dport' must be int",
            ),
            (
                {"name": "scrub", "app": "sanitizer", "match": {"udp_dport": 9.5}},
                "tenant 'scrub' match field 'udp_dport'",
            ),
            (
                {"name": "net", "app": "int",
                 "match": {"dst_ip": "10.0.0.0", "prefix_len": "8"}},
                "tenant 'net' match field 'prefix_len' must be int",
            ),
            (
                {"name": "net", "app": "int", "match": ["udp_dport", 53]},
                "tenant 'net' match must be Mapping",
            ),
        ],
        ids=[
            "unknown-key", "engine-key", "no-name", "no-app", "not-a-mapping",
            "bad-share", "match-unknown-key", "match-str-dport", "match-float-dport",
            "match-str-prefix-len", "match-not-a-mapping",
        ],
    )
    def test_from_dict_fails_closed(self, payload, needle):
        with pytest.raises(ConfigError, match=needle):
            TenantSpec.from_dict(payload)


class TestDeployment:
    def test_requires_unique_names_and_catchall(self):
        wildcard = TenantSpec(name="b", app="int")
        scoped = TenantSpec(
            name="a", app="sanitizer", match=SteeringMatch(udp_dport=9099)
        )
        Deployment((scoped, wildcard))  # valid: last is wildcard
        with pytest.raises(ConfigError):
            Deployment((wildcard, scoped))  # catch-all must come last
        with pytest.raises(ConfigError):
            Deployment((scoped, TenantSpec(name="a", app="int")))
        with pytest.raises(ConfigError):
            Deployment(())

    def test_solo_is_single_tenant(self):
        deployment = Deployment.solo(Passthrough())
        assert not deployment.multi_tenant
        assert deployment.tenants[0].match.is_wildcard

    def test_default_pair_is_valid_and_multi(self):
        deployment = Deployment.from_dicts(default_nfv_tenants())
        assert deployment.multi_tenant
        assert [t.name for t in deployment.tenants] == ["scrub", "telemetry"]
        assert deployment.share_total() == pytest.approx(1.0)

    def test_from_dicts_rejects_a_non_list_document(self):
        with pytest.raises(ConfigError, match="must be a list"):
            Deployment.from_dicts({"tenants": list(default_nfv_tenants())})


class TestPricing:
    def test_estimator_crossbar_scales_with_ports(self):
        two = sum(estimator.crossbar(2).as_dict().values())
        four = sum(estimator.crossbar(4).as_dict().values())
        assert two > 0
        assert four > two
        with pytest.raises(ResourceError):
            estimator.crossbar(0)

    def test_price_includes_crossbar_and_tenants(self):
        deployment = Deployment.from_dicts(default_nfv_tenants())
        price = price_deployment(deployment)
        assert sum(price.crossbar.as_dict().values()) > 0
        assert set(price.per_tenant) == {"scrub", "telemetry"}
        assert price.fits

    def test_default_deployment_checks_clean(self):
        deployment = Deployment.from_dicts(default_nfv_tenants())
        assert check_deployment(deployment) == []

    def test_oversubscription_is_static_error(self):
        deployment = Deployment.from_dicts(
            [
                {"name": "a", "app": "sanitizer",
                 "match": {"udp_dport": 1}, "share": 0.9},
                {"name": "b", "app": "int", "share": 0.9},
            ]
        )
        findings = check_deployment(deployment)
        assert any(f.rule == "nfv-oversubscription" for f in findings)

    def test_partition_overflow_on_tiny_share(self):
        deployment = Deployment.from_dicts(
            [
                {"name": "a", "app": "nat",
                 "match": {"udp_dport": 1}, "share": 0.001},
                {"name": "b", "app": "int", "share": 0.999},
            ],
            device=get_device("MPF100T"),
        )
        findings = check_deployment(deployment, shell=PROTOTYPE_SHELL)
        assert any(f.rule == "nfv-partition-overflow" for f in findings)
