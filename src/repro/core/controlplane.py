"""The embedded control plane (Mi-V softcore model).

Handles the management protocol: table read/write with atomic runtime
updates, counter reads, and the §4.2 over-the-network reprogramming FSM
("the control plane authenticates reconfiguration packets whose payload
carries a new bitstream; a small FSM writes it to SPI flash and then
triggers a reboot so the SFP boots the new application").

The control plane is deliberately synchronous and small — it models a
RISC-V core running a tight event loop, not a general OS.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import TYPE_CHECKING

from ..errors import ControlPlaneError, FlashError, ReproError, TableError
from ..packet import Packet
from ..sim.engine import Window
from .mgmt import MAX_BODY, MgmtMessage, MgmtOp, parse_chunk_body
from .ppe import _EngineBase
from .tables import ExactTable, LPMTable, TernaryTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import FlexSFPModule


class ReconfigState(Enum):
    IDLE = "idle"
    RECEIVING = "receiving"


def _normalize_key(key: object) -> object:
    """JSON-transported keys: lists become tuples so they hash."""
    if isinstance(key, list):
        return tuple(_normalize_key(item) for item in key)
    if isinstance(key, dict):
        raise ControlPlaneError(f"field 'key' must not be an object, got {key!r}")
    return key


_MISSING = object()


def _int_field(body: dict, name: str, default: object = _MISSING) -> int:
    """``body[name]`` as an int; a missing or non-integer field is a
    :class:`ControlPlaneError` naming it."""
    value = body.get(name, default)
    if value is _MISSING:
        raise ControlPlaneError(f"field {name!r} is required")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ControlPlaneError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from exc


def _hex_field(body: dict, name: str) -> bytes:
    """``body[name]`` decoded from hex (empty when absent)."""
    value = body.get(name, "")
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError) as exc:
        raise ControlPlaneError(f"field {name!r} must be hex, got {value!r}") from exc


class ControlPlane:
    """Management endpoint living next to the PPE."""

    def __init__(self, module: "FlexSFPModule", auth_key: bytes) -> None:
        self.module = module
        self.auth_key = auth_key
        self.last_seq = 0
        self.auth_failures = 0
        self.replays_rejected = 0
        self.commands_handled = 0
        self.crashed = False
        self.hung = Window()
        self.frames_while_unresponsive = 0
        self._reconfig_state = ReconfigState.IDLE
        self._reconfig_slot = 0
        self._reconfig_total = 0
        self._reconfig_sha = ""
        self._reconfig_buffer = bytearray()

    # ------------------------------------------------------------------
    # Softcore liveness (fault-injection surface)
    # ------------------------------------------------------------------
    @property
    def responsive(self) -> bool:
        """Is the softcore answering management traffic right now?"""
        return not self.crashed and self.module.sim.now not in self.hung

    def crash(self) -> None:
        """The softcore wedges: no replies until the watchdog reboots it."""
        self.crashed = True

    def hang(self, duration_s: float) -> None:
        """The softcore stalls for ``duration_s`` then resumes on its own."""
        self.hung.open(self.module.sim.now, duration_s)

    def revive(self) -> None:
        """Restart the softcore event loop (runs as part of a reboot)."""
        self.crashed = False
        self.hung.close(self.module.sim.now)

    # ------------------------------------------------------------------
    # Frame-level entry point
    # ------------------------------------------------------------------
    def handle_frame(self, packet: Packet, when: float) -> MgmtMessage | None:
        """Authenticate, replay-check, and dispatch one management frame.

        Returns the reply message (ACK/NAK), or None when the frame fails
        authentication (unauthenticated traffic gets no oracle) or the
        softcore is crashed or hung at ``when`` (a dead CPU answers nothing).
        """
        if self.crashed or when in self.hung:
            self.frames_while_unresponsive += 1
            return None
        try:
            message = MgmtMessage.unpack(packet.payload, self.auth_key)
        except ControlPlaneError:
            self.auth_failures += 1
            return None
        if message.seq <= self.last_seq:
            self.replays_rejected += 1
            return self._nak(message, "replayed or out-of-order sequence")
        self.last_seq = message.seq
        return self.dispatch(message)

    # ------------------------------------------------------------------
    # Command dispatch (also the host-driver local API)
    # ------------------------------------------------------------------
    def dispatch(self, message: MgmtMessage) -> MgmtMessage:
        self.commands_handled += 1
        try:
            handler = {
                MgmtOp.HELLO: self._op_hello,
                MgmtOp.TABLE_ADD: self._op_table_add,
                MgmtOp.TABLE_DEL: self._op_table_del,
                MgmtOp.TABLE_CLEAR: self._op_table_clear,
                MgmtOp.TABLE_STATS: self._op_table_stats,
                MgmtOp.COUNTER_READ: self._op_counter_read,
                MgmtOp.RECONFIG_BEGIN: self._op_reconfig_begin,
                MgmtOp.RECONFIG_CHUNK: self._op_reconfig_chunk,
                MgmtOp.RECONFIG_COMMIT: self._op_reconfig_commit,
                MgmtOp.BOOT_SELECT: self._op_boot_select,
                MgmtOp.REBOOT: self._op_reboot,
            }.get(message.opcode)
            if handler is None:
                return self._nak(message, f"unsupported opcode {message.opcode}")
            reply = handler(message)
        except ReproError as exc:
            return self._nak(message, str(exc))
        if len(reply.body) > MAX_BODY:
            # An answer the channel cannot carry is refused, not raised.
            return self._nak(
                message, f"reply too large ({len(reply.body)} B > {MAX_BODY} B)"
            )
        return reply

    def _ack(self, message: MgmtMessage, **fields: object) -> MgmtMessage:
        return MgmtMessage.control(MgmtOp.ACK, message.seq, ok=True, **fields)

    def _nak(self, message: MgmtMessage, reason: str) -> MgmtMessage:
        return MgmtMessage.control(MgmtOp.NAK, message.seq, ok=False, reason=reason)

    # ------------------------------------------------------------------
    # Info / tables / counters
    # ------------------------------------------------------------------
    def _op_hello(self, message: MgmtMessage) -> MgmtMessage:
        return self._ack(
            message,
            app=self.module.app.name,
            device=self.module.device.name,
            shell=self.module.shell.kind.value,
            boot_slot=self.module.flash.boot_slot,
            tables=self.module.app.tables.names(),
            degraded=self.module.degraded,
            failed_boots=self.module.failed_boots,
        )

    def _op_table_add(self, message: MgmtMessage) -> MgmtMessage:
        body = message.json_body()
        table = self.module.app.tables.get(str(body.get("table")))
        key = _normalize_key(body.get("key"))
        value = body.get("value")
        if isinstance(table, ExactTable):
            table.insert(key, value)
        elif isinstance(table, LPMTable):
            table.insert(
                _int_field(body, "prefix"), _int_field(body, "prefix_len"), value
            )
        elif isinstance(table, TernaryTable):
            table.insert(
                _int_field(body, "value_bits"),
                _int_field(body, "mask"),
                _int_field(body, "priority", 0),
                value,
            )
        else:
            raise TableError(f"table kind {table.kind!r} not writable via mgmt")
        return self._ack(message, table=table.name, size=len(table))

    def _op_table_del(self, message: MgmtMessage) -> MgmtMessage:
        body = message.json_body()
        table = self.module.app.tables.get(str(body.get("table")))
        if isinstance(table, ExactTable):
            table.delete(_normalize_key(body.get("key")))
        elif isinstance(table, LPMTable):
            table.delete(_int_field(body, "prefix"), _int_field(body, "prefix_len"))
        else:
            raise TableError(f"table kind {table.kind!r} does not support delete")
        return self._ack(message, table=table.name, size=len(table))

    def _op_table_clear(self, message: MgmtMessage) -> MgmtMessage:
        body = message.json_body()
        table = self.module.app.tables.get(str(body.get("table")))
        if isinstance(table, ExactTable):
            table.atomic_replace({})
        elif isinstance(table, TernaryTable):
            table.clear()
        else:
            raise TableError(f"table kind {table.kind!r} does not support clear")
        return self._ack(message, table=table.name, size=len(table))

    def _op_table_stats(self, message: MgmtMessage) -> MgmtMessage:
        return self._ack(message, stats=self.module.app.tables.stats())

    def _op_counter_read(self, message: MgmtMessage) -> MgmtMessage:
        """Every slot's app counters and its PPE's counters.

        Only the leaves both engine tiers publish (the base engine's view)
        are sent, so the reply is byte-equal across tiers and carries no
        wall-clock time.
        """
        return self._ack(
            message,
            tenants={
                slot.name: {
                    "app": slot.app.metric_values(),
                    "ppe": _EngineBase.metric_values(slot.ppe),
                }
                for slot in self.module.slots
            },
        )

    # ------------------------------------------------------------------
    # Reprogramming FSM
    # ------------------------------------------------------------------
    @property
    def reconfig_state(self) -> ReconfigState:
        return self._reconfig_state

    def _op_reconfig_begin(self, message: MgmtMessage) -> MgmtMessage:
        body = message.json_body()
        slot = _int_field(body, "slot", -1)
        total = _int_field(body, "total_len", 0)
        sha = str(body.get("sha256", ""))
        if slot == 0:
            raise FlashError("the golden slot cannot be reprogrammed remotely")
        if total <= 0 or total > self.module.flash.slot_bytes:
            raise FlashError(f"bad image length {total}")
        if len(sha) != 64:
            raise ControlPlaneError("RECONFIG_BEGIN requires a sha256 digest")
        self._reconfig_state = ReconfigState.RECEIVING
        self._reconfig_slot = slot
        self._reconfig_total = total
        self._reconfig_sha = sha
        self._reconfig_buffer = bytearray(total)
        self._reconfig_received = 0
        return self._ack(message, slot=slot, chunk_limit=1100)

    def _op_reconfig_chunk(self, message: MgmtMessage) -> MgmtMessage:
        if self._reconfig_state is not ReconfigState.RECEIVING:
            raise ControlPlaneError("RECONFIG_CHUNK outside a transfer")
        offset, data = parse_chunk_body(message.body)
        if offset + len(data) > self._reconfig_total:
            raise ControlPlaneError("chunk overruns the declared image length")
        self._reconfig_buffer[offset : offset + len(data)] = data
        self._reconfig_received += len(data)
        return self._ack(message, received=self._reconfig_received)

    def _op_reconfig_commit(self, message: MgmtMessage) -> MgmtMessage:
        if self._reconfig_state is not ReconfigState.RECEIVING:
            raise ControlPlaneError("RECONFIG_COMMIT outside a transfer")
        image = bytes(self._reconfig_buffer)
        digest = hashlib.sha256(image).hexdigest()
        if digest != self._reconfig_sha:
            self._reset_reconfig()
            raise ControlPlaneError("image digest mismatch; transfer aborted")
        # Parse + CRC check, then verify the bitstream signature carried in
        # the commit body against the module's deployment key.
        from ..fpga.bitstream import Bitstream  # local import to stay light

        try:
            bitstream = Bitstream.from_bytes(image)
            signature = _hex_field(message.json_body(), "signature")
        except ReproError:
            self._reset_reconfig()
            raise
        if not bitstream.verify(self.module.deploy_key, signature):
            self._reset_reconfig()
            raise ControlPlaneError("bitstream signature rejected")
        if bitstream.device != self.module.device.name:
            self._reset_reconfig()
            raise ControlPlaneError(
                f"bitstream targets {bitstream.device}, module is "
                f"{self.module.device.name}"
            )
        self.module.flash.store_bitstream(self._reconfig_slot, bitstream)
        slot = self._reconfig_slot
        self._reset_reconfig()
        return self._ack(message, slot=slot, app=bitstream.app_name)

    def _reset_reconfig(self) -> None:
        self._reconfig_state = ReconfigState.IDLE
        self._reconfig_buffer = bytearray()
        self._reconfig_total = 0
        self._reconfig_sha = ""

    def _op_boot_select(self, message: MgmtMessage) -> MgmtMessage:
        slot = _int_field(message.json_body(), "slot", -1)
        self.module.flash.select_boot(slot)
        return self._ack(message, boot_slot=slot)

    def _op_reboot(self, message: MgmtMessage) -> MgmtMessage:
        self.module.schedule_reboot()
        return self._ack(message, rebooting=True)

    def metric_values(self) -> dict[str, int | bool]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "commands_handled": self.commands_handled,
            "auth_failures": self.auth_failures,
            "replays_rejected": self.replays_rejected,
            "crashed": self.crashed,
            "frames_while_unresponsive": self.frames_while_unresponsive,
        }
