"""Struct-of-arrays burst arithmetic for the compiled engine tier.

The compiled data plane moves whole same-size bursts through the simulator
as one template packet plus numpy arrays of per-frame times.  A burst is an
optimisation *of* the per-frame reservation, never a second model of it:
:meth:`repro.sim.engine.ServiceTimeline.admit_burst` is defined as folding
the scalar ``admit`` over the arrival times, and each vector regime here
exists because a measured workload takes it (counts: one repeat of
``nat-linerate-fused``, 29,762 frames in 351 bursts: 117 PPE bursts and
234 host- and line-port bursts).  ``admit_burst`` tries keep-up first
whenever the head finds the server idle, then the busy chain: where both
hold, every arrival equals its predecessor's finish and the two give the
same floats and leave the same pending state, so the order only decides
which kernel does the work.  It discards 5 vector attempts per repeat.

* **Keep-up** (:func:`keepup_reservations`): the head finds the server
  idle and no frame arrives before its predecessor finishes, so every
  frame starts on arrival and the finishes are one vector add.  This is
  the *PPE* regime (``f_clk x width >= line rate``: a 60 B frame is served
  in 57.6 ns — nine 64 b beats at 156.25 MHz — and arrives every 67.2 ns):
  117 of 117 PPE bursts, and every PPE burst at 512 B and 1514 B, where
  256 frames are 4x and 12x the PPE's 32 KiB FIFO and only the exact
  no-drop condition (one frame fits: each arrival drains its predecessor)
  holds.  It also takes a port burst its source paced at exactly the port
  rate (each arrival ties the previous finish): 182 of the 234 port
  bursts.  299 bursts in all.
* **Busy chain** (:func:`chain_reservations`): every frame after the first
  arrives no later than its predecessor's finish, so the server never
  idles inside the burst and the finishes are one ``np.add.accumulate`` — a
  sequential left fold, each element exactly ``previous + service`` in
  scalar float64.  This is a *link* regime: a port serialises a burst
  that finds it busy or that is paced above the port rate — 49 of the
  234 port bursts.
* Everything else — idle gaps and queueing inside one burst, or a burst
  that might not fit the queue — is the exact scalar replay: 3 port
  bursts, which idle in one place and queue in another by a rounding
  error.

Both validity tests reduce their mask with ``np.count_nonzero``, which
skips the Python-level wrapper ``ndarray.any`` goes through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import numpy as np


def chain_reservations(
    times: np.ndarray, service: float, free_at: float
) -> np.ndarray | None:
    """Finish times of a burst served as one busy segment, else None.

    ``times`` is a non-decreasing float64 array of arrival seconds and
    ``service`` the per-frame service time (uniform — the burst contract).
    The first frame starts at ``max(times[0], free_at)``; the result is
    bit-identical to the sequential ``start = max(arrival, free_at);
    finish = start + service`` loop provided no later arrival beats the
    running finish (strict ``>``, matching the scalar ``max``).  When one
    does, the server idles inside the burst and the caller replays the
    scalar sequence instead.  Frame ``k``'s start is the previous frame's
    finish (``chain[k]``), so the returned ``chain`` has ``n + 1`` entries:
    starts are ``chain[:-1]`` and finishes ``chain[1:]``.
    """
    import numpy as np

    n = len(times)
    first = times[0]
    chain = np.empty(n + 1)
    chain[0] = first if first > free_at else free_at
    chain[1:] = service
    chain = np.add.accumulate(chain)
    if n > 1 and np.count_nonzero(times[1:] > chain[1:n]):
        return None
    return chain


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
