"""Worker-process chaos: deterministic faults for the shard supervisor.

The gauntlet in :mod:`repro.faults.plan` breaks things *inside* the
simulation; this module breaks the machinery *around* it — the worker
processes a supervised fleet run fans shards out to.  A
:class:`WorkerFaultPlan` maps ``(shard index, attempt)`` to one fault
kind, so a test can declare "kill shard 0's first attempt, hang shard
2's first two attempts" and the schedule replays byte-identically every
run.  Because shard seeds are a pure function of (root seed, index), a
retried shard recomputes the exact same result — which is what lets the
chaos suite assert that a supervised run under fire merges bit-identical
metrics to an undisturbed run.

Fault kinds (applied by the worker to *itself*, before/around shard
execution):

* ``worker_kill`` — ``os._exit`` without sending a result: the crashed
  worker the supervisor sees as pipe EOF + nonzero exit.
* ``worker_hang`` — sleep far past any deadline while heartbeats keep
  flowing: a live-but-stuck straggler, caught by the shard deadline.
* ``worker_stall`` — sleep with heartbeats suppressed: a wedged process,
  caught by the heartbeat detector before the deadline.
* ``worker_corrupt`` — send garbage bytes instead of a pickled
  :class:`~repro.parallel.runner.ShardResult`: an unpicklable/corrupt
  result.
* ``worker_raise`` — raise inside shard execution: surfaces as a
  structured per-shard failure with a traceback, never an opaque
  pool re-raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigError

WORKER_FAULTS = (
    "worker_kill",
    "worker_hang",
    "worker_stall",
    "worker_corrupt",
    "worker_raise",
)

# How long a hung/stalled worker sleeps.  Far beyond any sane deadline —
# the supervisor must kill it; it never wakes up on its own in a test.
DEFAULT_HANG_S = 3600.0


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker fault: fire ``kind`` on ``(shard, attempt)``."""

    shard: int
    attempt: int
    kind: str
    hang_s: float = DEFAULT_HANG_S

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigError(f"shard index must be >= 0: {self.shard}")
        if self.attempt < 1:
            raise ConfigError(f"attempts count from 1: {self.attempt}")
        if self.kind not in WORKER_FAULTS:
            raise ConfigError(
                f"unknown worker fault {self.kind!r}; kinds: {WORKER_FAULTS}"
            )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A reproducible schedule of worker faults, keyed by (shard, attempt)."""

    faults: tuple[WorkerFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for fault in self.faults:
            key = (fault.shard, fault.attempt)
            if key in seen:
                raise ConfigError(
                    f"duplicate worker fault for shard {fault.shard} "
                    f"attempt {fault.attempt}"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.faults)

    def fault_for(self, shard: int, attempt: int) -> WorkerFault | None:
        """The fault scheduled for this (shard, attempt), if any."""
        for fault in self.faults:
            if fault.shard == shard and fault.attempt == attempt:
                return fault
        return None

    # ------------------------------------------------------------------
    @classmethod
    def scripted(cls, schedule: dict[tuple[int, int], str]) -> "WorkerFaultPlan":
        """Build a plan from ``{(shard, attempt): kind}`` — the test idiom."""
        return cls(
            faults=tuple(
                WorkerFault(shard=shard, attempt=attempt, kind=kind)
                for (shard, attempt), kind in sorted(schedule.items())
            )
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        shards: int,
        count: int = 4,
        kinds: tuple[str, ...] = ("worker_kill", "worker_raise"),
        max_attempt: int = 1,
    ) -> "WorkerFaultPlan":
        """Draw ``count`` faults over distinct (shard, attempt) slots.

        All draws come from one ``random.Random(seed)`` so the same seed
        yields the same schedule.  Only first-``max_attempt`` attempts are
        attacked by default, which keeps a default-retry supervisor able
        to finish every shard.
        """
        if shards < 1:
            raise ConfigError(f"shards must be >= 1: {shards}")
        for kind in kinds:
            if kind not in WORKER_FAULTS:
                raise ConfigError(f"unknown worker fault {kind!r}")
        slots = [
            (shard, attempt)
            for shard in range(shards)
            for attempt in range(1, max_attempt + 1)
        ]
        rng = random.Random(seed)
        chosen = rng.sample(slots, min(count, len(slots)))
        return cls(
            faults=tuple(
                WorkerFault(shard=shard, attempt=attempt, kind=rng.choice(kinds))
                for shard, attempt in sorted(chosen)
            )
        )
