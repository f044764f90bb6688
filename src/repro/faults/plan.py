"""Deterministic fault plans.

A :class:`FaultPlan` is an ordered schedule of :class:`FaultEvent`\\ s —
*what* goes wrong, *where*, and *when* on the simulator clock.  Plans are
plain data: they can be generated from a seed (every draw comes from one
``random.Random``, so the same seed always yields byte-identical
schedules), serialized to/from JSON-friendly dicts for replay, and
fingerprinted for reproducibility checks.

The plan knows nothing about the simulation; :class:`~repro.faults.injector.
FaultInjector` binds target *names* to live objects and fires the events.
The gauntlet's target names and its replayable :data:`NAMED_PLANS` live
here too, so a command that only lists or draws a plan loads no topology.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field

from ..errors import ConfigError

# Fault kinds, grouped by the class of target they apply to.
LINK_FAULTS = (
    "link_flap",  # dark window: every frame in flight or arriving is lost
    "link_loss_burst",  # elevated random loss for a window
    "link_corrupt_burst",  # bit errors: payload bytes flipped in flight
    "link_duplicate_burst",  # frames delivered twice
)
MODULE_FAULTS = (
    "flash_bitrot",  # seeded bit flips in a flash slot
    "flash_write_fail",  # next image program/verify fails
    "softcore_crash",  # control plane wedges until the watchdog reboots
    "softcore_hang",  # control plane stalls, then resumes on its own
    "module_reboot",  # spontaneous reboot (e.g. power glitch)
)
ALL_FAULTS = LINK_FAULTS + MODULE_FAULTS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` on ``target`` at ``time_s``."""

    time_s: float
    kind: str
    target: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigError("fault time must be non-negative")
        if self.kind not in ALL_FAULTS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "target": self.target,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            target=str(data["target"]),
            params=dict(data.get("params", {})),
        )


class FaultPlan:
    """An ordered, reproducible schedule of faults."""

    def __init__(self, events: list[FaultEvent], seed: int | None = None) -> None:
        self.events = sorted(events, key=lambda e: (e.time_s, e.kind, e.target))
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # Serialization / fingerprinting
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            [FaultEvent.from_dict(item) for item in data.get("events", [])],
            seed=data.get("seed"),
        )

    def signature(self) -> str:
        """SHA-256 over the canonical JSON form — equal plans, equal hash."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Seeded generation
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        links: tuple[str, ...] = (),
        modules: tuple[str, ...] = (),
        count: int = 10,
        kinds: tuple[str, ...] | None = None,
        settle_s: float = 0.0,
    ) -> "FaultPlan":
        """Draw ``count`` faults uniformly over ``[0, duration_s)``.

        Only kinds applicable to the supplied target lists are drawn.
        ``settle_s`` reserves a fault-free tail at the end of the window
        so recovery can complete before measurement stops.  Determinism:
        all draws come from one ``random.Random(seed)``; per-event flash
        corruption seeds are derived with CRC-32 (never ``hash()``, which
        is process-salted).
        """
        if duration_s <= settle_s:
            raise ConfigError("duration must exceed the settle window")
        if not links and not modules:
            raise ConfigError("a fault plan needs at least one target")
        applicable = []
        for kind in kinds if kinds is not None else ALL_FAULTS:
            if kind in LINK_FAULTS and links:
                applicable.append(kind)
            elif kind in MODULE_FAULTS and modules:
                applicable.append(kind)
        if not applicable:
            raise ConfigError("no fault kinds applicable to the given targets")
        rng = random.Random(seed)
        window = duration_s - settle_s
        events: list[FaultEvent] = []
        for index in range(count):
            time_s = rng.uniform(0, window)
            kind = rng.choice(applicable)
            target = rng.choice(links if kind in LINK_FAULTS else modules)
            events.append(
                cls._draw_event(rng, seed, index, time_s, kind, target)
            )
        return cls(events, seed=seed)

    @staticmethod
    def _draw_event(
        rng: random.Random,
        seed: int,
        index: int,
        time_s: float,
        kind: str,
        target: str,
    ) -> FaultEvent:
        params: dict
        if kind == "link_flap":
            params = {"duration_s": rng.uniform(0.5e-3, 5e-3)}
        elif kind in ("link_loss_burst", "link_corrupt_burst", "link_duplicate_burst"):
            params = {
                "duration_s": rng.uniform(1e-3, 10e-3),
                "probability": rng.uniform(0.1, 0.9),
            }
        elif kind == "flash_bitrot":
            params = {
                # Never slot 0: seeded gauntlets corrupt the app slot; the
                # golden image is attacked only by explicit plans.
                "slot": rng.randrange(1, 4),
                "nbits": rng.randrange(1, 33),
                "seed": zlib.crc32(f"{seed}:{index}:{target}".encode()),
            }
        elif kind == "flash_write_fail":
            params = {"count": rng.randrange(1, 3)}
        elif kind == "softcore_hang":
            params = {"duration_s": rng.uniform(1e-3, 20e-3)}
        else:  # softcore_crash / module_reboot
            params = {}
        return FaultEvent(time_s=time_s, kind=kind, target=target, params=params)


# Canonical target names inside the gauntlet topology.
DUT = "dut"
MGMT_LINK = "mgmt-link"
LINE_LINK = "line-link"

GAUNTLET_RUN_S = 1.5
GAUNTLET_SETTLE_S = 0.4  # fault-free tail so recovery can complete


def _derived_seed(seed: int, label: str) -> int:
    return zlib.crc32(f"{seed}:{label}".encode())


# ----------------------------------------------------------------------
# Named plans (replayable via the ``chaos`` CLI subcommand)
# ----------------------------------------------------------------------
def _generated(seed: int, count: int, kinds: tuple[str, ...] | None) -> FaultPlan:
    return FaultPlan.generate(
        seed,
        GAUNTLET_RUN_S,
        links=(MGMT_LINK, LINE_LINK),
        modules=(DUT,),
        count=count,
        kinds=kinds,
        settle_s=GAUNTLET_SETTLE_S,
    )


def _plan_smoke(seed: int) -> FaultPlan:
    return _generated(seed, count=6, kinds=None)


def _plan_linkstorm(seed: int) -> FaultPlan:
    return _generated(seed, count=16, kinds=LINK_FAULTS)


def _plan_flashstorm(seed: int) -> FaultPlan:
    return _generated(
        seed, count=8, kinds=("flash_bitrot", "flash_write_fail", "module_reboot")
    )


def _plan_crashloop(seed: int) -> FaultPlan:
    return _generated(seed, count=8, kinds=("softcore_crash", "softcore_hang"))


def _plan_full(seed: int) -> FaultPlan:
    return _generated(seed, count=24, kinds=None)


def _plan_brownout(seed: int) -> FaultPlan:
    """Hand-authored worst case: the golden image itself rots.

    The module reboots into a double boot failure, degrades to
    pass-through, and must be *rescued* by the fleet controller pushing a
    fresh image over a management link that is itself lossy — the one
    scenario where self-healing alone is not enough.
    """
    return FaultPlan(
        [
            FaultEvent(
                0.10,
                "flash_bitrot",
                DUT,
                {"slot": 0, "nbits": 16, "seed": _derived_seed(seed, "golden")},
            ),
            FaultEvent(0.15, "module_reboot", DUT, {}),
            FaultEvent(
                0.40,
                "link_loss_burst",
                MGMT_LINK,
                {"duration_s": 50e-3, "probability": 0.2},
            ),
        ],
        seed=seed,
    )


NAMED_PLANS = {
    "smoke": _plan_smoke,
    "linkstorm": _plan_linkstorm,
    "flashstorm": _plan_flashstorm,
    "crashloop": _plan_crashloop,
    "full": _plan_full,
    "brownout": _plan_brownout,
}
