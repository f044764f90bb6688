"""Struct-of-arrays burst arithmetic for the compiled engine tier.

The compiled data plane moves whole same-size bursts through the simulator
as one template packet plus numpy arrays of per-frame times.  A burst is an
optimisation *of* the per-frame reservation, never a second model of it:
:meth:`repro.sim.engine.ServiceTimeline.admit_burst` is defined as folding
the scalar ``admit`` over the arrival times, and each vector regime here
exists because a measured workload takes it (counts: one repeat of
``nat-linerate-fused``, 29,762 frames in 24 bursts of up to 4,096 frames:
8 at the host port, 8 at the PPE, 8 at the line port).  ``admit_burst``
tries keep-up first whenever the head finds the server idle, then the busy
chain: where both hold, every arrival equals its predecessor's finish and
the two give the same floats and leave the same pending state, so the
order only decides which kernel does the work.  It discards 1 keep-up
attempt per repeat.

* **Keep-up** (:func:`keepup_reservations`): the head finds the server
  idle and no frame arrives before its predecessor finishes, so every
  frame starts on arrival and the finishes are one vector add.  This is
  the *PPE* regime (``f_clk x width >= line rate``: a 60 B frame is served
  in 57.6 ns — nine 64 b beats at 156.25 MHz — and arrives every 67.2 ns):
  every PPE burst at 60, 512 and 1514 B, where a burst is up to 75x the
  PPE's 32 KiB FIFO and only the exact no-drop condition (one frame
  fits: each arrival drains its predecessor) holds.  It also takes a port
  burst its source paced at exactly the port rate (each arrival ties the
  previous finish): 8 host-port and 4 line-port bursts.
* **Busy chain** (:func:`chain_reservations`): a burst the fold admits
  whole, in alternating busy runs (one ``np.add.accumulate``, a
  sequential left fold: each element exactly ``previous + service`` in
  scalar float64) and keep-up runs.  Whether the fold admits it whole is
  O(1) when the burst fits the queue at its head, else one vector pass
  over the chain's starts (:func:`queue_peak`: the bytes each arrival
  finds queued).  This is the *line-port* regime: the PPE's finishes plus
  the transceiver latency reach the line port within a rounding error of
  its own finishes, so a burst queues in one place and idles in another,
  one frame deep — 4 of the 8 line-port bursts, 2 in one busy run and 2
  in two and six runs.  At 512 and 1,514 B the first line-port burst
  (2.1 and 2.5 MB against a 512 KiB queue) is admitted by the peak.
* Everything else — a burst the fold drops frames of, or one whose runs
  outgrow the bound — is the exact scalar replay: none at 60, 512 or
  1,514 B.

Masks reduce with ``np.count_nonzero``, ``np.flatnonzero`` or
``ndarray.argmax``, never ``ndarray.any`` (a Python-level wrapper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from collections import deque

    import numpy as np


def chain_reservations(
    times: np.ndarray, service: float, free_at: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(starts, finishes)`` of the fold over a burst, run by run, else None.

    ``times`` is a non-decreasing float64 array of arrival seconds and
    ``service`` the per-frame service time (uniform — the burst contract).
    The fold (``start = max(arrival, free_at)``, ``finish = start +
    service``) alternates two kinds of run.  A *busy run* starts where a
    frame arrives before its predecessor's finish (or ``free_at``): its
    starts are one ``np.add.accumulate`` from there, and it ends at the
    first arrival later than its predecessor's finish.  A *keep-up run*
    starts there: its starts are the arrivals, and it ends at the first
    arrival earlier than ``previous arrival + service``, found by one
    comparison over the whole burst.  A tie stays in its run; both rules
    give it the same float.  Returns None (the caller folds) once the
    vectors pass ``4 n``: the comparison counts ``n`` and each busy run
    its span to the end.  Spans differ, so at most about ``sqrt(6 n)``
    busy runs fit and the work stays linear in the burst.
    """
    import numpy as np

    n = len(times)
    work = at = 0
    pieces = []
    keepup_ends = None
    start = free_at if times[0] < free_at else None
    while at < n:
        if start is None:  # keep-up run
            if keepup_ends is None:
                work += n
                keepup_ends = np.flatnonzero(times[1:] < times[:-1] + service) + 1
            following = int(keepup_ends.searchsorted(at, side="right"))
            end = int(keepup_ends[following]) if following < len(keepup_ends) else n
            pieces.append(times[at:end])
            if end < n:
                start = times[end - 1] + service
        else:  # busy run
            work += n - at
            if work > 4 * n:
                return None
            # chain[k] is the finish of frame ``at + k - 1``, which is frame
            # ``at + k``'s start while the run lasts.
            chain = np.full(n - at + 1, service)
            chain[0] = start
            np.add.accumulate(chain, out=chain)
            idles = times[at:] > chain[:-1]
            end = int(idles.argmax())
            end = at + end if idles[end] else n
            pieces.append(chain[: end - at])
            start = None
        at = end
    starts = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    return starts, starts + service


def queue_peak(
    times: np.ndarray, starts: np.ndarray, size: int, pending: deque[tuple[float, int]]
) -> int:
    """The most bytes queued at any arrival of a burst the fold admits whole.

    ``starts`` are the burst's starts (:func:`chain_reservations`) and
    ``pending`` the ``(start, size)`` reservations still queued at its head,
    in start order.  Arrival ``i`` finds queued the pending reservations
    that start after it, this burst's frames before ``i`` that start after
    it (from the first start past ``times[i]``, clipped to ``i``: starts
    never decrease), and frame ``i`` itself — what the fold's ``admit``
    weighs against the limit there.  So the fold drops nothing exactly
    when the peak fits the limit, and then its starts are ``starts``.
    """
    import numpy as np

    before = np.arange(len(times))
    started = starts.searchsorted(times, side="right")
    np.minimum(started, before, out=started)
    queued = (before - started + 1) * size
    if pending:
        pending_starts = np.fromiter((at for at, _ in pending), float, len(pending))
        # from_first[k]: the bytes of pending reservation k and every later one.
        from_first = np.zeros(len(pending) + 1, dtype=np.int64)
        from_first[-2::-1] = np.add.accumulate([held for _, held in reversed(pending)])
        queued += from_first[pending_starts.searchsorted(times, side="right")]
    return int(queued.max())


def keepup_reservations(times: np.ndarray, service: float) -> np.ndarray | None:
    """Finish times of a burst whose every frame starts on arrival, else None.

    The caller has checked the head (``times[0] >= free_at``); here no
    later frame may arrive before its predecessor finishes (strict ``<``:
    an arrival tying that finish starts on the spot, as the scalar ``max``
    has it).  The finishes are then element-wise the scalar ``at + service``.
    """
    import numpy as np

    finishes = times + service
    if np.count_nonzero(times[1:] < finishes[:-1]):
        return None
    return finishes
