"""Fleet orchestration: centralized control of many FlexSFPs (§4.1).

"[A network-accessible control interface] is essential for centralized
orchestration across a fleet of FlexSFPs, while preserving the
independence of per-port behavior."

:class:`FleetController` is that orchestrator: it speaks the management
protocol over a simulated network port, matches replies to requests by
sequence number, discovers modules via broadcast HELLO, reads/writes
their tables and counters, streams signed bitstreams, and performs
*rolling upgrades* — one module at a time, verifying each comes back
with the new application before touching the next.

Everything is event-driven: operations take completion callbacks and the
controller enforces per-request timeouts.  The management network is not
assumed reliable: every tracked request is retried with exponential
backoff plus seeded jitter (each attempt uses a fresh sequence number,
so a delayed original is NAK'd by replay protection rather than
double-applied), discovery re-broadcasts its HELLO across the window,
and rolling upgrades health-probe each module after the reboot — a
module that comes back wrong or degraded is rolled back to its previous
boot slot.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from ._util import int_to_mac
from .core.mgmt import MAGIC, MgmtMessage, MgmtOp, chunk_body, mgmt_frame
from .errors import ControlPlaneError
from .fpga.bitstream import Bitstream
from .packet import Packet
from .sim.engine import EventHandle, Simulator
from .sim.link import Port
from .sim.stats import Counter

BROADCAST = "ff:ff:ff:ff:ff:ff"
REQUEST_TIMEOUT_S = 20e-3
DEFAULT_MAX_RETRIES = 2
BACKOFF_BASE_S = 1e-3
BACKOFF_JITTER = 0.5
DEFAULT_DISCOVERY_REPEATS = 3
CHUNK_BYTES = 1024

ReplyCallback = Callable[[dict | None], None]
"""Receives the reply's JSON body, or None when every attempt timed out."""

MessageFactory = Callable[[], MgmtMessage]
"""Builds a fresh (new-sequence-number) message for each send attempt."""


@dataclass
class ModuleInfo:
    """What discovery learned about one module."""

    mac: str
    app: str
    device: str
    shell: str
    boot_slot: int
    tables: list[str] = field(default_factory=list)
    degraded: bool = False


@dataclass
class UpgradeReport:
    """Outcome of a rolling upgrade."""

    upgraded: list[str] = field(default_factory=list)
    failed: list[tuple[str, str]] = field(default_factory=list)  # (mac, reason)
    rolled_back: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


class _Pending:
    __slots__ = ("callback", "timer")

    def __init__(self, callback: ReplyCallback, timer: EventHandle) -> None:
        self.callback = callback
        self.timer = timer


class FleetController:
    """The management-plane orchestrator."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "fleet",
        auth_key: bytes = b"flexsfp-mgmt-key",
        mac: str | int = "02:0c:00:00:00:0f",
        rate_bps: float = 1e9,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_seed: int = 1,
    ) -> None:
        self.sim = sim
        self.name = name
        self.auth_key = auth_key
        self.mac = mac
        self.max_retries = max_retries
        self._retry_rng = random.Random(retry_seed)
        self.port = Port(sim, f"{name}.mgmt", rate_bps=rate_bps)
        self.port.attach(self._on_rx)
        self._seq = 0
        self._pending: dict[int, _Pending] = {}
        self._discovered: dict[str, ModuleInfo] = {}
        self._discovering = False
        self.timeouts = Counter(f"{name}.timeouts")  # requests abandoned
        self.retries = Counter(f"{name}.retries")  # individual resends
        self.naks = Counter(f"{name}.naks")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metric_values(self) -> dict[str, int]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "timeouts.packets": self.timeouts.packets,
            "retries.packets": self.retries.packets,
            "naks.packets": self.naks.packets,
            "pending": len(self._pending),
            "discovered": len(self._discovered),
            "seq": self._seq,
        }

    def register_metrics(self, registry) -> None:
        """Publish the controller and its port into a ``MetricsRegistry``."""
        registry.register(self.name, self)
        registry.register(f"{self.name}.port", self.port)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send_once(
        self,
        dst_mac: str | int,
        message: MgmtMessage,
        on_reply: ReplyCallback | None,
        track: bool = True,
    ) -> None:
        """One attempt: frame, arm the timeout, transmit. No retries."""
        frame = mgmt_frame(message, self.auth_key, self.mac, dst_mac)
        if track and on_reply is not None:
            timer = self.sim.schedule(REQUEST_TIMEOUT_S, self._timeout, message.seq)
            self._pending[message.seq] = _Pending(on_reply, timer)
        self.port.send(frame)

    def _request(
        self,
        dst_mac: str | int,
        make_message: MessageFactory,
        on_reply: ReplyCallback,
    ) -> None:
        """Send with up to ``max_retries`` retries, exponential backoff,
        and jitter.

        ``make_message`` is invoked per attempt so every retransmission
        carries a fresh sequence number — required because the original
        may have been *received* with only its reply lost, and the module
        replay-rejects reused sequence numbers.
        """
        budget = self.max_retries

        def attempt(used: int) -> None:
            def handle(body: dict | None) -> None:
                if body is not None or used >= budget:
                    if body is None:
                        self.timeouts.count()
                    on_reply(body)
                    return
                self.retries.count()
                backoff = BACKOFF_BASE_S * (2**used) * (
                    1.0 + BACKOFF_JITTER * self._retry_rng.random()
                )
                self.sim.schedule(backoff, attempt, used + 1)

            self._send_once(dst_mac, make_message(), handle)

        attempt(0)

    def _timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None:
            pending.callback(None)

    def _on_rx(self, port: Port, packet: Packet, size: int, when: float) -> None:
        payload = packet.payload
        if payload[:2] != MAGIC:
            return  # a flooded data frame: unpack would raise to say the same
        try:
            message = MgmtMessage.unpack(payload, self.auth_key)
            body = message.json_body()
        except ControlPlaneError:
            return  # corrupt, foreign or garbled frame; the timeout handles it
        if message.opcode not in (MgmtOp.ACK, MgmtOp.NAK):
            return
        if message.opcode is MgmtOp.NAK:
            self.naks.count()
        if self._discovering and body.get("ok") and "app" in body and "device" in body:
            eth = packet.eth
            mac = int_to_mac(eth.src) if eth is not None else "?"
            self._discovered[mac] = ModuleInfo(
                mac=mac,
                app=str(body["app"]),
                device=str(body["device"]),
                shell=str(body.get("shell", "")),
                boot_slot=int(body.get("boot_slot", 0)),
                tables=list(body.get("tables", [])),
                degraded=bool(body.get("degraded", False)),
            )
        pending = self._pending.pop(message.seq, None)
        if pending is not None:
            pending.timer.cancel()
            pending.callback(body)

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------
    def hello(self, mac: str | int, on_reply: ReplyCallback) -> None:
        self._request(
            mac,
            lambda: MgmtMessage.control(MgmtOp.HELLO, self._next_seq()),
            on_reply,
        )

    def discover(
        self,
        window_s: float,
        on_done: Callable[[dict[str, ModuleInfo]], None],
        repeats: int = DEFAULT_DISCOVERY_REPEATS,
    ) -> None:
        """Broadcast HELLO; after ``window_s``, report every responder.

        The HELLO is re-broadcast ``repeats`` times across the window so a
        lossy management network still yields a complete census (replies
        are deduplicated by source MAC).
        """
        self._discovered = {}
        self._discovering = True

        def fire() -> None:
            # Built at fire time so sequence numbers stay monotonic even
            # when unicast requests interleave with the re-broadcasts.
            self._send_once(
                BROADCAST,
                MgmtMessage.control(MgmtOp.HELLO, self._next_seq()),
                None,
                track=False,
            )

        interval = window_s / (repeats + 1)
        for index in range(max(1, repeats)):
            self.sim.schedule(index * interval, fire)

        def finish() -> None:
            self._discovering = False
            on_done(dict(self._discovered))

        self.sim.schedule(window_s, finish)

    def table_add(
        self, mac: str | int, table: str, key, value, on_reply: ReplyCallback
    ) -> None:
        self._request(
            mac,
            lambda: MgmtMessage.control(
                MgmtOp.TABLE_ADD, self._next_seq(), table=table, key=key, value=value
            ),
            on_reply,
        )

    def counter_read(self, mac: str | int, on_reply: ReplyCallback) -> None:
        self._request(
            mac,
            lambda: MgmtMessage.control(MgmtOp.COUNTER_READ, self._next_seq()),
            on_reply,
        )

    def boot_select(self, mac: str | int, slot: int, on_reply: ReplyCallback) -> None:
        self._request(
            mac,
            lambda: MgmtMessage.control(MgmtOp.BOOT_SELECT, self._next_seq(), slot=slot),
            on_reply,
        )

    def reboot(self, mac: str | int, on_reply: ReplyCallback) -> None:
        self._request(
            mac,
            lambda: MgmtMessage.control(MgmtOp.REBOOT, self._next_seq()),
            on_reply,
        )

    # ------------------------------------------------------------------
    # Bitstream deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        mac: str | int,
        bitstream: Bitstream,
        slot: int,
        on_done: Callable[[bool, str], None],
        deploy_key: bytes | None = None,
        reboot: bool = True,
    ) -> None:
        """Stream a bitstream into ``slot``; optionally boot into it.

        ``on_done(ok, reason)`` fires after the commit (and, with
        ``reboot``, after BOOT_SELECT + REBOOT are acknowledged).  Every
        step rides the retry transport, so a lossy management link slows
        a deployment down rather than failing it.
        """
        image = bitstream.to_bytes()
        signature = bitstream.sign(
            deploy_key if deploy_key is not None else self.auth_key
        ).hex()
        offsets = list(range(0, len(image), CHUNK_BYTES))

        def fail(reason: str) -> None:
            on_done(False, reason)

        def after_begin(reply: dict | None) -> None:
            if not reply or not reply.get("ok"):
                return fail(f"begin rejected: {reply and reply.get('reason')}")
            send_chunk(0)

        def send_chunk(index: int) -> None:
            if index >= len(offsets):
                return commit()
            offset = offsets[index]
            self._request(
                mac,
                lambda: MgmtMessage(
                    MgmtOp.RECONFIG_CHUNK,
                    self._next_seq(),
                    chunk_body(offset, image[offset : offset + CHUNK_BYTES]),
                ),
                lambda reply: (
                    send_chunk(index + 1)
                    if reply and reply.get("ok")
                    else fail(f"chunk {index} failed")
                ),
            )

        def commit() -> None:
            self._request(
                mac,
                lambda: MgmtMessage.control(
                    MgmtOp.RECONFIG_COMMIT, self._next_seq(), signature=signature
                ),
                after_commit,
            )

        def after_commit(reply: dict | None) -> None:
            if not reply or not reply.get("ok"):
                return fail(f"commit rejected: {reply and reply.get('reason')}")
            if not reboot:
                return on_done(True, "stored")
            self.boot_select(mac, slot, after_select)

        def after_select(reply: dict | None) -> None:
            if not reply or not reply.get("ok"):
                return fail("boot select rejected")
            self.reboot(
                mac,
                lambda reply: on_done(bool(reply and reply.get("ok")), "rebooting")
                if reply
                else fail("reboot not acknowledged"),
            )

        self._request(
            mac,
            lambda: MgmtMessage.control(
                MgmtOp.RECONFIG_BEGIN,
                self._next_seq(),
                slot=slot,
                total_len=len(image),
                sha256=hashlib.sha256(image).hexdigest(),
            ),
            after_begin,
        )

    # ------------------------------------------------------------------
    # Rolling upgrade
    # ------------------------------------------------------------------
    def rolling_upgrade(
        self,
        macs: list[str],
        bitstream: Bitstream,
        slot: int,
        on_done: Callable[[UpgradeReport], None],
        settle_s: float = 0.2,
        deploy_key: bytes | None = None,
    ) -> None:
        """Upgrade modules one at a time, verifying each before the next.

        Before touching a module the controller snapshots its current
        boot slot.  After each deploy+reboot it waits ``settle_s`` (to
        cover the reprogram downtime), then health-probes the module: it
        must answer, report the new application, and not be degraded.  A
        failed probe triggers an automatic *rollback* — boot-select back
        to the snapshot slot and reboot — before the rollout stops (the
        canary behaviour a fleet operator wants).
        """
        report = UpgradeReport()
        queue = list(macs)

        def next_module() -> None:
            if not queue:
                return on_done(report)
            mac = queue.pop(0)
            # Snapshot the pre-upgrade boot slot for a possible rollback.
            self.hello(mac, lambda reply, m=mac: start_deploy(m, reply))

        def start_deploy(mac: str, reply: dict | None) -> None:
            if not reply or not reply.get("ok"):
                report.failed.append((mac, "unreachable before upgrade"))
                return on_done(report)
            previous_slot = int(reply.get("boot_slot", 0))
            self.deploy(
                mac,
                bitstream,
                slot,
                lambda ok, reason, m=mac, p=previous_slot: after_deploy(
                    m, p, ok, reason
                ),
                deploy_key=deploy_key,
            )

        def after_deploy(mac: str, previous_slot: int, ok: bool, reason: str) -> None:
            if not ok:
                report.failed.append((mac, reason))
                return on_done(report)  # stop the rollout
            self.sim.schedule(settle_s, probe, mac, previous_slot)

        def probe(mac: str, previous_slot: int) -> None:
            self.hello(
                mac, lambda reply, m=mac, p=previous_slot: after_probe(m, p, reply)
            )

        def after_probe(mac: str, previous_slot: int, reply: dict | None) -> None:
            healthy = (
                reply is not None
                and reply.get("ok")
                and reply.get("app") == bitstream.app_name
                and not reply.get("degraded")
            )
            if healthy:
                report.upgraded.append(mac)
                return next_module()
            reason = (
                "health probe timed out"
                if reply is None
                else "verification failed"
                if reply.get("app") != bitstream.app_name
                else "module degraded after upgrade"
            )
            rollback(mac, previous_slot, reason)

        def rollback(mac: str, previous_slot: int, reason: str) -> None:
            def after_rollback_reboot(reply: dict | None) -> None:
                if reply and reply.get("ok"):
                    report.rolled_back.append(mac)
                report.failed.append((mac, reason))
                on_done(report)  # stop the rollout after a canary failure

            def after_rollback_select(reply: dict | None) -> None:
                if not reply or not reply.get("ok"):
                    report.failed.append((mac, f"{reason}; rollback failed"))
                    return on_done(report)
                self.reboot(mac, after_rollback_reboot)

            self.boot_select(mac, previous_slot, after_rollback_select)

        next_module()
