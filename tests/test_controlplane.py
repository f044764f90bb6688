"""Embedded control plane: table ops, counters, OTA reprogramming FSM."""

import hashlib
import json

import pytest

from repro.apps import AclFirewall, StaticNat, TunnelGateway
from repro.core import (
    FlexSFPModule,
    MgmtMessage,
    MgmtOp,
    ReconfigState,
    ShellSpec,
    chunk_body,
    mgmt_frame,
)
from repro.core.mgmt import MAX_BODY
from repro.core.ppe import _EngineBase
from repro.errors import ControlPlaneError
from repro.hls import compile_app
from repro.nfv import Deployment
from repro.obs.scenario import ScenarioSpec
from repro.sim import Port, connect
from tests.test_bitstream import MUTANTS, mutant_image

KEY = b"unit-test-key"


@pytest.fixture
def module(sim):
    nat = StaticNat()
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    return FlexSFPModule(sim, "dut", Deployment.solo(nat), auth_key=KEY)


def command(module, opcode, seq, **fields) -> dict:
    reply = module.control_plane.dispatch(MgmtMessage.control(opcode, seq, **fields))
    return {"opcode": reply.opcode, **reply.json_body()}


class TestTableOps:
    def test_hello(self, module):
        reply = command(module, MgmtOp.HELLO, 1)
        assert reply["ok"] and reply["app"] == "nat"
        assert "nat" in reply["tables"]

    def test_table_add_and_datapath_visibility(self, module):
        reply = command(
            module, MgmtOp.TABLE_ADD, 2, table="nat", key=0x0A000002, value=0xC6336402
        )
        assert reply["ok"]
        assert module.app.nat_table.lookup(0x0A000002) == 0xC6336402

    def test_table_del(self, module):
        command(module, MgmtOp.TABLE_ADD, 2, table="nat", key=5, value=6)
        reply = command(module, MgmtOp.TABLE_DEL, 3, table="nat", key=5)
        assert reply["ok"]
        assert module.app.nat_table.lookup(5) is None

    def test_unknown_table_naks(self, module):
        reply = command(module, MgmtOp.TABLE_ADD, 2, table="nope", key=1, value=2)
        assert reply["opcode"] is MgmtOp.NAK
        assert "unknown table" in reply["reason"]

    def test_table_stats(self, module):
        reply = command(module, MgmtOp.TABLE_STATS, 2)
        assert reply["ok"] and "nat" in reply["stats"]

    def test_counter_read(self, module):
        # A solo module answers in the multi-tenant shape: one slot.
        reply = command(module, MgmtOp.COUNTER_READ, 2)
        assert reply["ok"] and set(reply["tenants"]) == {"default"}
        tenant = reply["tenants"]["default"]
        assert tenant["app"] == module.app.metric_values()
        assert tenant["ppe"] == _EngineBase.metric_values(module.ppe)

    def test_list_key_normalized_to_tuple(self, sim):
        firewall = AclFirewall()
        module = FlexSFPModule(sim, "fw", Deployment.solo(firewall), auth_key=KEY)
        # Exact tables keyed by tuples arrive as JSON lists.
        nat = StaticNat()
        module2 = FlexSFPModule(sim, "nat2", Deployment.solo(nat), auth_key=KEY)
        reply = module2.control_plane.dispatch(
            MgmtMessage.control(MgmtOp.TABLE_ADD, 2, table="nat", key=[1, 2], value=9)
        )
        assert reply.json_body()["ok"]
        assert nat.nat_table.lookup((1, 2)) == 9


class TestFrameAuth:
    def test_authenticated_frame_handled(self, module):
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 10), KEY, "02:00:00:00:00:aa", module.mgmt_mac
        )
        reply = module.control_plane.handle_frame(frame, module.sim.now)
        assert reply is not None and reply.json_body()["ok"]

    def test_bad_key_silently_dropped(self, module):
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 11),
            b"wrong",
            "02:00:00:00:00:aa",
            module.mgmt_mac,
        )
        assert module.control_plane.handle_frame(frame, module.sim.now) is None
        assert module.control_plane.auth_failures == 1

    def test_replay_rejected(self, module):
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 12), KEY, "02:00:00:00:00:aa", module.mgmt_mac
        )
        assert module.control_plane.handle_frame(frame, module.sim.now).json_body()["ok"]
        reply = module.control_plane.handle_frame(frame, module.sim.now)
        assert not reply.json_body()["ok"]
        assert module.control_plane.replays_rejected == 1


class TestReconfigFsm:
    def build_new_image(self, sim) -> bytes:
        firewall = AclFirewall(capacity=64)
        build = compile_app(firewall, ShellSpec())
        return build.bitstream

    def transfer(self, module, bitstream, slot=1, seq=100, corrupt=False, sign_key=KEY):
        signature = bitstream.sign(sign_key).hex()
        return self.transfer_image(module, bitstream.to_bytes(), signature, slot, seq, corrupt)

    def transfer_image(self, module, image, signature, slot=1, seq=100, corrupt=False):
        digest = hashlib.sha256(image).hexdigest()
        reply = command(
            module,
            MgmtOp.RECONFIG_BEGIN,
            seq,
            slot=slot,
            total_len=len(image),
            sha256=digest,
        )
        assert reply["ok"], reply
        assert module.control_plane.reconfig_state is ReconfigState.RECEIVING
        chunk = 1024
        for offset in range(0, len(image), chunk):
            seq += 1
            data = image[offset : offset + chunk]
            if corrupt and offset == 0:
                data = b"\x00" * len(data)
            message = MgmtMessage(MgmtOp.RECONFIG_CHUNK, seq, chunk_body(offset, data))
            module.control_plane.dispatch(message)
        seq += 1
        return command(module, MgmtOp.RECONFIG_COMMIT, seq, signature=signature)

    def test_full_ota_flow(self, sim, module):
        bitstream = self.build_new_image(sim)
        reply = self.transfer(module, bitstream)
        assert reply["ok"] and reply["app"] == "firewall"
        assert module.flash.load_bitstream(1).app_name == "firewall"
        # Boot-select + reboot swaps the running application.
        command(module, MgmtOp.BOOT_SELECT, 500, slot=1)
        command(module, MgmtOp.REBOOT, 501)
        sim.run(until=1.0)
        assert module.app.name == "firewall"
        assert module.reboots == 1

    def test_digest_mismatch_aborts(self, sim, module):
        bitstream = self.build_new_image(sim)
        reply = self.transfer(module, bitstream, corrupt=True)
        assert not reply["ok"] and "digest" in reply["reason"]
        assert module.control_plane.reconfig_state is ReconfigState.IDLE

    def test_bad_signature_rejected(self, sim, module):
        bitstream = self.build_new_image(sim)
        reply = self.transfer(module, bitstream, sign_key=b"attacker")
        assert not reply["ok"] and "signature" in reply["reason"]

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_malformed_image_naks_and_resets_the_transfer(self, module, name):
        reply = self.transfer_image(module, mutant_image(name), "00" * 32)
        assert reply["opcode"] is MgmtOp.NAK
        assert MUTANTS[name][1] in reply["reason"]
        assert module.control_plane.reconfig_state is ReconfigState.IDLE

    def test_non_hex_signature_naks_and_resets_the_transfer(self, sim, module):
        image = self.build_new_image(sim).to_bytes()
        reply = self.transfer_image(module, image, "not hex")
        assert reply["opcode"] is MgmtOp.NAK and "signature" in reply["reason"]
        assert module.control_plane.reconfig_state is ReconfigState.IDLE

    def test_golden_slot_protected(self, module):
        reply = command(
            module, MgmtOp.RECONFIG_BEGIN, 100, slot=0, total_len=100, sha256="0" * 64
        )
        assert not reply["ok"] and "golden" in reply["reason"]

    def test_chunk_outside_transfer_naks(self, module):
        message = MgmtMessage(MgmtOp.RECONFIG_CHUNK, 100, chunk_body(0, b"x"))
        reply = module.control_plane.dispatch(message)
        assert not reply.json_body()["ok"]

    def test_chunk_overrun_rejected(self, module):
        command(
            module, MgmtOp.RECONFIG_BEGIN, 100, slot=1, total_len=10, sha256="0" * 64
        )
        message = MgmtMessage(MgmtOp.RECONFIG_CHUNK, 101, chunk_body(8, b"xxxx"))
        reply = module.control_plane.dispatch(message)
        assert "overruns" in reply.json_body()["reason"]

    def test_wrong_device_rejected(self, sim, module):
        from repro.fpga import MPF300T

        firewall = AclFirewall(capacity=64)
        build = compile_app(firewall, ShellSpec(), device=MPF300T)
        reply = self.transfer(module, build.bitstream)
        assert not reply["ok"] and "targets" in reply["reason"]


#: (app factory, opcode, fields, field the refusal must name)
_BAD_FIELDS = {
    "begin-slot-string": (StaticNat, MgmtOp.RECONFIG_BEGIN,
                          dict(slot="x", total_len=10, sha256="0" * 64), "slot"),
    "begin-total-null": (StaticNat, MgmtOp.RECONFIG_BEGIN,
                         dict(slot=1, total_len=None, sha256="0" * 64), "total_len"),
    "begin-total-infinite": (StaticNat, MgmtOp.RECONFIG_BEGIN,
                             dict(slot=1, total_len=float("inf"), sha256="0" * 64),
                             "total_len"),
    "boot-slot-list": (StaticNat, MgmtOp.BOOT_SELECT, dict(slot=[1]), "slot"),
    "exact-key-object": (StaticNat, MgmtOp.TABLE_ADD,
                         dict(table="nat", key={"a": 1}, value=2), "key"),
    "lpm-add-no-prefix": (TunnelGateway, MgmtOp.TABLE_ADD,
                          dict(table="tunnel_routes", prefix_len=8, value=1), "prefix"),
    "lpm-add-bad-length": (TunnelGateway, MgmtOp.TABLE_ADD,
                           dict(table="tunnel_routes", prefix=1, prefix_len="x", value=1),
                           "prefix_len"),
    "lpm-del-no-prefix": (TunnelGateway, MgmtOp.TABLE_DEL,
                          dict(table="tunnel_routes", prefix_len=8), "prefix"),
    "ternary-no-mask": (AclFirewall, MgmtOp.TABLE_ADD,
                        dict(table="acl", value_bits=1, value="deny"), "mask"),
}  # fmt: skip


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_a_malformed_field_is_a_typed_nak_naming_it(sim, case):
    make_app, opcode, fields, field = _BAD_FIELDS[case]
    module = FlexSFPModule(sim, "dut", Deployment.solo(make_app()), auth_key=KEY)
    plane = module.control_plane
    message = MgmtMessage.control(opcode, 7, **fields)
    with pytest.raises(ControlPlaneError, match=repr(field)):
        getattr(plane, f"_op_{opcode.name.lower()}")(message)
    reply = plane.dispatch(message)
    assert reply.opcode is MgmtOp.NAK and repr(field) in reply.json_body()["reason"]
    assert plane.reconfig_state is ReconfigState.IDLE


class TestCounterReadReply:
    """What a module reports is itself a frame: tier-exact and bounded."""

    @staticmethod
    def read_after_run(kind: str, engine: str) -> MgmtMessage:
        module = ScenarioSpec(kind=kind, engine=engine).run().modules[0]
        plane = module.control_plane
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.COUNTER_READ, plane.last_seq + 1),
            plane.auth_key,
            "02:00:00:00:00:bb",
            module.mgmt_mac,
        )
        return plane.handle_frame(frame, module.sim.now)

    @pytest.mark.parametrize("kind", ["nat-linerate", "nfv-chain"])
    def test_reply_is_byte_equal_across_tiers(self, kind):
        reference = self.read_after_run(kind, "reference")
        compiled = self.read_after_run(kind, "compiled")
        for reply in (reference, compiled):
            assert reply.opcode is MgmtOp.ACK
            assert len(reply.body) <= MAX_BODY
        assert compiled.body == reference.body

    def test_oversize_reply_is_a_nak_and_the_run_goes_on(self, sim):
        # Four tenants' counters do not fit one management body.
        deployment = Deployment.from_dicts(
            [
                {"name": f"t{i}", "app": "sanitizer",
                 "match": {"udp_dport": 1000 + i}, "share": 0.2}
                for i in range(3)
            ]
            + [{"name": "rest", "app": "sanitizer", "share": 0.2}]
        )
        module = FlexSFPModule(sim, "m", deployment, auth_key=KEY)
        host = Port(sim, "host", 10e9)
        replies = []
        host.attach(
            lambda port, packet, size, when: replies.append(
                MgmtMessage.unpack(packet.payload, KEY)
            )
        )
        connect(host, module.edge_port)
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.COUNTER_READ, 1),
            KEY,
            "02:00:00:00:00:bb",
            module.mgmt_mac,
        )
        sim.schedule(1e-3, host.send, frame)
        sim.run(until=2e-3)
        assert [reply.opcode for reply in replies] == [MgmtOp.NAK]
        assert "reply too large" in replies[0].json_body()["reason"]
        assert module.control_plane.commands_handled == 1
