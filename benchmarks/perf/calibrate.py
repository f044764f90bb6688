"""Machine-speed calibration: what makes the timings steady on a shared host.

On the 2-vCPU containers this benchmark runs in, the host slows a guest
down in bursts: for half a second to a second everything runs up to twice
as slow, with no steal time reported, and ``process_time`` inflates along
with the wall clock.  A 3 s repeat catches zero, one or two bursts, and
five of them have a run-to-run spread of 10 to 25 %, which no regression
bound survives.

So every timed repeat is short (a fraction of a second) and sits between
two runs of :func:`spin`, a fixed pure-Python loop (heap pushes and pops
of small objects, bound-method calls, dict updates: the instruction mix
of the simulator's hot paths, and none of the repo's code, so speeding
the simulator up cannot speed the yardstick up).  A repeat's time is
scaled by ``NOMINAL_S / mean(spin before, spin after)``: it reads in
seconds *on a host where the loop takes NOMINAL_S*, which is what a quiet
container of this class measures.  Measured here, that takes the
quartile spread of a run's median from about 11 % to about 3 %.

A workload that keeps two processes busy is slowed by what happens on
both vCPUs, and two busy vCPUs are each slower than one busy vCPU.  The
CLI workload has one process busy about half the time (start, imports,
merge, artifact write) and two the other half, so its yardstick
(:class:`Yardstick` with ``processes=2``) is the mean of a spin alone and
a spin alongside a partner process; the partner is a child of this file,
started once and told when to spin.  Measured on the CLI workload in a
noisy spell: 22 % raw, 8.5 % with the two-process spin alone, 4.5 % with
the mean.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

#: Events per spin; about 75 ms on a quiet container of this class.
EVENTS = 20_000
#: The spin duration timings are scaled to, in seconds.
NOMINAL_S = 0.075


class _Event:
    __slots__ = ("time", "seq", "callback")

    def __init__(self, time: float, seq: int, callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Sink:
    def __init__(self) -> None:
        self.table: dict[int, int] = {}

    def receive(self, key: int) -> None:
        slot = key & 1023
        self.table[slot] = self.table.get(slot, 0) + 1


def spin() -> tuple[float, float]:
    """One calibration loop: ``(wall seconds, CPU seconds)``."""
    heap: list[_Event] = []
    sink = _Sink()
    cpu0, wall0 = process_time(), perf_counter()
    for i in range(EVENTS):
        heapq.heappush(heap, _Event((i * 7919) % 1000 / 1e3, i, sink.receive))
        if i & 1:
            event = heapq.heappop(heap)
            event.callback(i)
    while heap:
        event = heapq.heappop(heap)
        event.callback(event.seq)
    return perf_counter() - wall0, process_time() - cpu0


class Yardstick:
    """Spins in ``processes`` processes at once; use as a context manager."""

    def __init__(self, processes: int = 1) -> None:
        self._partners = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(processes - 1)
        ]

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        for partner in self._partners:
            partner.stdin.close()
            partner.wait()
            partner.stdout.close()
        self._partners = []

    def measure(self) -> tuple[float, float]:
        """``(wall, cpu)`` of a spin alone, averaged with one in company."""
        alone = spin()
        if not self._partners:
            return alone
        for partner in self._partners:
            partner.stdin.write("spin\n")
            partner.stdin.flush()
        together = [spin()]
        for partner in self._partners:
            wall, cpu = partner.stdout.readline().split()
            together.append((float(wall), float(cpu)))
        wall = sum(t[0] for t in together) / len(together)
        cpu = sum(t[1] for t in together) / len(together)
        return (alone[0] + wall) / 2.0, (alone[1] + cpu) / 2.0


def scaled(value: float, *spins: float) -> float:
    """``value`` in seconds on a host where :func:`spin` takes NOMINAL_S.

    ``spins`` are the yardstick readings taken around the measurement.
    """
    return value * NOMINAL_S * len(spins) / sum(spins)


def _partner() -> None:
    for _line in sys.stdin:
        wall, cpu = spin()
        sys.stdout.write(f"{wall!r} {cpu!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _partner()
