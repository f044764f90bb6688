"""The shard supervisor: deadlines, retries, checkpoints, graceful loss.

``pool.map`` treats worker processes as infallible: one crash re-raises
an opaque error in the parent, one hang wedges the whole campaign, and a
SIGKILL throws away every completed shard.  The supervisor replaces it
with per-shard lifecycle management in the spirit of the module's own
boot watchdog:

* every shard runs in its own worker process with a **heartbeat** thread
  and an optional **deadline** — a crashed worker (pipe EOF / nonzero
  exit), a straggler past the deadline, a wedged process whose
  heartbeats stop, and a corrupt (unpicklable or wrong-typed) result are
  all detected and killed, never waited on forever;
* every failed shard is **retried** up to a bounded count with
  exponential backoff — retries are bit-identical because shard seeds
  are a pure function of (root seed, index), so a retried shard cannot
  drift from the result the first attempt would have produced;
* every completed shard is **journalled** to an append-only checkpoint
  (:mod:`repro.parallel.journal`), so a killed run resumes by
  re-executing only the missing shards;
* exhausted retries **degrade, not abort**: the run completes, the
  merged artifact carries an explicit :class:`Completeness` block naming
  the failed shards, and callers (the CLI) signal partial coverage with
  a distinct exit code instead of silently pretending the fleet was
  whole.

Worker exceptions surface as structured :class:`ShardError` records —
shard index, seed, attempt, and the full traceback — via
:func:`run_shard_safe`, which wraps :func:`~repro.parallel.runner.
run_shard` for both the in-process and the worker-process paths.

The supervisor itself is orchestration, not simulation: its wall-clock
reads steer process lifecycles only and never touch a digest or a merged
metric, any more than the ``wall_s`` they feed.
"""

from __future__ import annotations

import os
import threading
import time
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path

from ..config import get_settings
from ..errors import ConfigError
from ..faults.workers import WorkerFaultPlan
from .runner import (
    FleetRunResult,
    ShardResult,
    _pick_start_method,
    run_shard,
    shard_spec,
)

# Exit code a chaos-killed worker dies with; any nonzero exit without a
# result message is classified as a crash, this one included.
_CHAOS_KILL_EXIT = 23
# Bytes that are not a valid pickle stream: the corrupt-result fault.
_CORRUPT_PAYLOAD = b"flexsfp-corrupt-shard-result"
# Floor on how long a worker may take to send its ready beat before it
# is presumed wedged-at-boot.  ``spawn`` boots a fresh interpreter and
# re-imports the package, which takes seconds on a loaded CI machine —
# a tight heartbeat grace must not misread boot as a wedge.
_BOOT_GRACE_S = 30.0

# Failure kinds the supervisor distinguishes (reasons + telemetry).
FAILURE_CRASH = "crash"
FAILURE_TIMEOUT = "timeout"
FAILURE_HUNG = "hung"
FAILURE_CORRUPT = "corrupt"
FAILURE_EXCEPTION = "exception"


# ----------------------------------------------------------------------
# Structured failures (satellite: no more opaque Pool re-raise)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardError:
    """One failed shard attempt, reduced to plain picklable data."""

    index: int
    seed: int
    attempt: int
    kind: str
    message: str
    traceback: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
            "traceback": self.traceback,
        }


def run_shard_safe(
    task: tuple, attempt: int = 1, inject: Exception | None = None
) -> ShardResult | ShardError:
    """Execute one shard; exceptions become :class:`ShardError` records.

    Top-level (picklable) like :func:`~repro.parallel.runner.run_shard`,
    which it wraps: a worker that raises reports *which* shard failed,
    under *which* seed, with the full traceback — instead of the
    exception surfacing as an opaque re-raise in the parent.  ``inject``
    lets the worker-chaos harness raise deterministically inside the
    guarded region.
    """
    spec, index = task
    seed = shard_spec(spec, index).seed
    try:
        if inject is not None:
            raise inject
        return run_shard(task)
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return ShardError(
            index=index,
            seed=seed,
            attempt=attempt,
            kind=FAILURE_EXCEPTION,
            message=f"{type(exc).__name__}: {exc}",
            traceback=_traceback.format_exc(),
        )


# ----------------------------------------------------------------------
# Policy + completeness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs: deadline, heartbeat cadence, retry budget."""

    shard_timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    heartbeat_s: float = 0.25
    heartbeat_misses: int = 20
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigError(
                f"shard timeout must be positive: {self.shard_timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_s < 0:
            raise ConfigError(f"backoff must be >= 0: {self.backoff_s}")
        if self.heartbeat_s <= 0 or self.heartbeat_misses < 1 or self.poll_s <= 0:
            raise ConfigError("heartbeat/poll settings must be positive")

    def backoff_for(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt + 1``."""
        return self.backoff_s * (2 ** (attempt - 1))

    @property
    def heartbeat_grace_s(self) -> float:
        return self.heartbeat_s * self.heartbeat_misses


@dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its retry budget."""

    index: int
    seed: int
    attempts: int
    reasons: tuple[str, ...]
    last_error: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "attempts": self.attempts,
            "reasons": list(self.reasons),
            "last_error": self.last_error,
        }


@dataclass(frozen=True)
class Completeness:
    """Explicit coverage accounting for a supervised run.

    ``ok`` means every shard completed; anything less is carried here —
    never silently dropped from the merged artifact.
    """

    shards: int
    completed: int
    failed: tuple[ShardFailure, ...] = ()
    resumed: tuple[int, ...] = ()
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed and self.completed == self.shards

    @property
    def failed_indices(self) -> tuple[int, ...]:
        return tuple(failure.index for failure in self.failed)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "shards": self.shards,
            "completed": self.completed,
            "failed": [failure.to_dict() for failure in self.failed],
            "failed_indices": list(self.failed_indices),
            "resumed": list(self.resumed),
            "retries": self.retries,
        }


class SupervisorTelemetry:
    """Supervision counters as a :class:`~repro.obs.registry.MetricSource`.

    Register under a prefix (``fleet.supervisor`` by convention) or read
    the snapshot straight off :attr:`FleetRunResult.supervisor`.
    """

    _FIELDS = (
        "launched",
        "completed",
        "retries",
        "crashes",
        "stragglers",
        "hangs",
        "corrupt_results",
        "worker_errors",
        "resumed",
        "failed",
    )

    def __init__(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def count_failure(self, kind: str) -> None:
        counter = {
            FAILURE_CRASH: "crashes",
            FAILURE_TIMEOUT: "stragglers",
            FAILURE_HUNG: "hangs",
            FAILURE_CORRUPT: "corrupt_results",
            FAILURE_EXCEPTION: "worker_errors",
        }[kind]
        setattr(self, counter, getattr(self, counter) + 1)

    def metric_values(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._FIELDS}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _supervised_worker(conn, task, attempt, heartbeat_s, fault) -> None:
    """Worker entry point: heartbeat, self-applied chaos, safe execution.

    Top-level so every start method can import it; ``conn`` is the send
    end of the shard's pipe.  The heartbeat thread shares the connection
    with the result send under one lock — interleaved writes would be a
    self-inflicted corrupt result.
    """
    _spec, index = task
    send_lock = threading.Lock()
    stop = threading.Event()

    # Ready signal: the parent starts the shard deadline at this first
    # beat, so interpreter boot (seconds under ``spawn``) never counts
    # against the shard's work budget.  Even a stalled worker sends it —
    # the stall fault models a process that booted and *then* wedged.
    with send_lock:
        try:
            conn.send(("beat", None))
        except (OSError, ValueError):
            return

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            with send_lock:
                if stop.is_set():
                    return
                try:
                    conn.send(("beat", None))
                except (OSError, ValueError):
                    return

    if fault is None or fault.kind != "worker_stall":
        threading.Thread(target=_beat, daemon=True).start()

    inject: Exception | None = None
    if fault is not None:
        if fault.kind == "worker_kill":
            os._exit(_CHAOS_KILL_EXIT)
        if fault.kind in ("worker_hang", "worker_stall"):
            time.sleep(fault.hang_s)
            os._exit(_CHAOS_KILL_EXIT)  # unreachable under supervision
        if fault.kind == "worker_corrupt":
            stop.set()
            with send_lock:
                conn.send_bytes(_CORRUPT_PAYLOAD)
            conn.close()
            return
        if fault.kind == "worker_raise":
            inject = RuntimeError(
                f"injected worker_raise fault (shard {index}, attempt {attempt})"
            )

    result = run_shard_safe(task, attempt=attempt, inject=inject)
    stop.set()
    with send_lock:
        conn.send(("done", result))
    conn.close()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Inflight:
    index: int
    attempt: int
    process: object
    conn: object
    started: float
    last_beat: float
    booted: bool = False


@dataclass
class _PendingAttempt:
    index: int
    attempt: int
    ready_at: float


class _ShardLedger:
    """Per-shard attempt bookkeeping shared by both execution paths."""

    def __init__(
        self,
        resolved,
        policy: SupervisorPolicy,
        telemetry: SupervisorTelemetry,
        journal,
    ) -> None:
        self.resolved = resolved
        self.policy = policy
        self.telemetry = telemetry
        self.journal = journal
        self.seeds = {
            index: shard_spec(resolved, index).seed
            for index in range(resolved.shards)
        }
        self.completed: dict[int, ShardResult] = {}
        self.failed: dict[int, ShardFailure] = {}
        self.reasons: dict[int, list[str]] = {}

    def record_completion(self, index: int, attempt: int, result: ShardResult) -> None:
        self.completed[index] = result
        self.telemetry.completed += 1
        if self.journal is not None:
            self.journal.append_shard(result, attempts=attempt)

    def record_failure(
        self, index: int, attempt: int, kind: str, detail: str
    ) -> bool:
        """Account one failed attempt; True if the shard may retry."""
        self.telemetry.count_failure(kind)
        self.reasons.setdefault(index, []).append(kind)
        if attempt <= self.policy.max_retries:
            self.telemetry.retries += 1
            return True
        self.telemetry.failed += 1
        self.failed[index] = ShardFailure(
            index=index,
            seed=self.seeds[index],
            attempts=attempt,
            reasons=tuple(self.reasons[index]),
            last_error=detail,
        )
        return False


def _run_pending_inprocess(
    ledger: _ShardLedger, pending: list[int], policy: SupervisorPolicy
) -> None:
    """The workers=1 path: sequential, supervised for errors and retries.

    No processes means no preemption — deadlines and heartbeats do not
    apply here; structured failure capture, bounded retry, and
    checkpointing do.  This is the baseline every parallel supervised run
    must match bit-for-bit.
    """
    for index in pending:
        attempt = 1
        while True:
            outcome = run_shard_safe((ledger.resolved, index), attempt=attempt)
            if isinstance(outcome, ShardResult):
                ledger.record_completion(index, attempt, outcome)
                break
            detail = outcome.message + (
                "\n" + outcome.traceback if outcome.traceback else ""
            )
            if not ledger.record_failure(index, attempt, outcome.kind, detail):
                break
            time.sleep(policy.backoff_for(attempt))
            attempt += 1


def _run_pending_supervised(
    ledger: _ShardLedger,
    pending_indices: list[int],
    workers: int,
    method: str,
    policy: SupervisorPolicy,
    chaos: WorkerFaultPlan | None,
) -> None:
    """Fan pending shards across supervised worker processes."""
    import multiprocessing

    ctx = multiprocessing.get_context(method)
    now = time.monotonic()  # flexsfp: allow(det-wallclock)
    pending = [_PendingAttempt(index, 1, now) for index in pending_indices]
    inflight: dict[object, _Inflight] = {}
    slots = max(1, min(workers, len(pending_indices)))

    def _launch(entry: _PendingAttempt) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        fault = chaos.fault_for(entry.index, entry.attempt) if chaos else None
        process = ctx.Process(
            target=_supervised_worker,
            args=(
                send_conn,
                (ledger.resolved, entry.index),
                entry.attempt,
                policy.heartbeat_s,
                fault,
            ),
            daemon=True,
        )
        process.start()
        send_conn.close()
        started = time.monotonic()  # flexsfp: allow(det-wallclock)
        inflight[recv_conn] = _Inflight(
            entry.index, entry.attempt, process, recv_conn, started, started
        )
        ledger.telemetry.launched += 1

    def _reap(flight: _Inflight) -> None:
        del inflight[flight.conn]
        flight.conn.close()
        if flight.process.is_alive():
            flight.process.kill()
        flight.process.join()

    def _attempt_failed(flight: _Inflight, kind: str, detail: str) -> None:
        _reap(flight)
        if ledger.record_failure(flight.index, flight.attempt, kind, detail):
            ready = time.monotonic()  # flexsfp: allow(det-wallclock)
            pending.append(
                _PendingAttempt(
                    flight.index,
                    flight.attempt + 1,
                    ready + policy.backoff_for(flight.attempt),
                )
            )

    while pending or inflight:
        now = time.monotonic()  # flexsfp: allow(det-wallclock)
        # Fill free slots with attempts whose backoff has elapsed.
        pending.sort(key=lambda entry: (entry.ready_at, entry.index))
        while pending and len(inflight) < slots and pending[0].ready_at <= now:
            _launch(pending.pop(0))
        if not inflight:
            # Everything runnable is backing off; sleep to the first one.
            time.sleep(max(0.0, pending[0].ready_at - now))
            continue

        for conn in _wait_connections(list(inflight), timeout=policy.poll_s):
            flight = inflight[conn]
            try:
                message = conn.recv()
            except EOFError:
                code = flight.process.exitcode
                _attempt_failed(
                    flight,
                    FAILURE_CRASH,
                    f"worker exited without a result (exitcode {code})",
                )
                continue
            except Exception as exc:  # noqa: BLE001 - garbage on the pipe
                _attempt_failed(
                    flight,
                    FAILURE_CORRUPT,
                    f"undecodable worker message: {type(exc).__name__}: {exc}",
                )
                continue
            if (
                not isinstance(message, tuple)
                or len(message) != 2
                or message[0] not in ("beat", "done")
            ):
                _attempt_failed(
                    flight, FAILURE_CORRUPT, f"malformed worker message: {message!r}"
                )
                continue
            tag, payload = message
            if tag == "beat":
                beat = time.monotonic()  # flexsfp: allow(det-wallclock)
                flight.last_beat = beat
                if not flight.booted:
                    # First beat = worker ready: the deadline measures
                    # shard work from here, not interpreter boot.
                    flight.booted = True
                    flight.started = beat
                continue
            if isinstance(payload, ShardResult) and payload.index == flight.index:
                _reap(flight)
                ledger.record_completion(flight.index, flight.attempt, payload)
            elif isinstance(payload, ShardError):
                detail = payload.message + (
                    "\n" + payload.traceback if payload.traceback else ""
                )
                _attempt_failed(flight, payload.kind, detail)
            else:
                _attempt_failed(
                    flight,
                    FAILURE_CORRUPT,
                    f"unexpected result payload: {type(payload).__name__}",
                )

        # Deadline + heartbeat sweep over whatever is still in flight.
        now = time.monotonic()  # flexsfp: allow(det-wallclock)
        for flight in list(inflight.values()):
            if (
                policy.shard_timeout_s is not None
                and now - flight.started > policy.shard_timeout_s
            ):
                _attempt_failed(
                    flight,
                    FAILURE_TIMEOUT,
                    f"shard exceeded its {policy.shard_timeout_s:.3f}s deadline",
                )
            elif (
                flight.booted
                and now - flight.last_beat > policy.heartbeat_grace_s
            ):
                _attempt_failed(
                    flight,
                    FAILURE_HUNG,
                    "no heartbeat for "
                    f"{policy.heartbeat_grace_s:.3f}s; worker presumed wedged",
                )
            elif not flight.booted and now - flight.started > max(
                policy.heartbeat_grace_s, _BOOT_GRACE_S
            ):
                _attempt_failed(
                    flight,
                    FAILURE_HUNG,
                    "worker never became ready; presumed wedged at boot",
                )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_sharded(
    spec,
    workers: int | None = None,
    start_method: str | None = None,
    *,
    policy: SupervisorPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: str | os.PathLike | None = None,
    chaos: WorkerFaultPlan | None = None,
) -> FleetRunResult:
    """Run every shard of ``spec`` under supervision and merge the results.

    The one sharded entry point.  ``workers=1`` (or one shard) runs
    in-process — the baseline any parallel run must match bit-for-bit.
    ``workers=None`` means 1.  The returned merged metrics
    and per-shard digests are a pure function of the resolved spec: worker
    count, start method, completion order, supervision and chaos (given
    retries remain) never show through.  On top of that:

    * ``policy`` bounds each shard (deadline, heartbeat, retries);
    * ``checkpoint`` journals completions for crash recovery;
    * ``resume`` preloads a journal and re-runs only missing shards
      (and keeps journalling into the same file unless ``checkpoint``
      redirects it);
    * ``chaos`` injects deterministic worker faults (tests/benchmarks).

    Shards whose retries are exhausted are reported in the returned
    :class:`Completeness` block; the run itself always completes.
    """
    # Parent only: a spawned worker imports this module for its entry
    # point and never journals or merges.
    from .journal import ShardJournal, load_journal, spec_digest
    from .merge import merge_histogram_states, merge_metrics

    settings = get_settings()
    if workers is None:
        workers = 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if policy is None:
        policy = SupervisorPolicy()
    resolved = spec.resolved(settings)

    telemetry = SupervisorTelemetry()
    preloaded: dict[int, ShardResult] = {}
    resumed_indices: tuple[int, ...] = ()
    if resume is not None:
        journal_spec, preloaded = load_journal(resume)
        if spec_digest(journal_spec) != spec_digest(resolved):
            raise ConfigError(
                f"journal {Path(resume)} records a different spec than the "
                "one being run; pass the journalled spec (the CLI's --resume "
                "does this automatically)"
            )
        for index, result in preloaded.items():
            expected = shard_spec(resolved, index).seed
            if result.seed != expected:
                raise ConfigError(
                    f"journal shard {index} seed {result.seed} does not match "
                    f"the derived seed {expected}"
                )
        resumed_indices = tuple(sorted(preloaded))
        telemetry.resumed = len(resumed_indices)
        if checkpoint is None:
            checkpoint = resume

    journal = None
    if checkpoint is not None:
        if resume is not None and Path(checkpoint) == Path(resume):
            journal = ShardJournal.open_append(checkpoint, resolved)
        else:
            journal = ShardJournal.open_new(checkpoint, resolved)
            for index in sorted(preloaded):
                journal.append_shard(preloaded[index], attempts=1)

    ledger = _ShardLedger(resolved, policy, telemetry, journal)
    ledger.completed.update(preloaded)
    pending = [i for i in range(resolved.shards) if i not in preloaded]

    started = time.perf_counter()  # flexsfp: allow(det-wallclock)
    try:
        if pending:
            # The in-process baseline keeps the historical fast path for
            # single-worker/single-shard runs; chaos always exercises real
            # worker processes (an in-process kill would be suicide).
            inprocess = (workers == 1 or resolved.shards == 1) and chaos is None
            if inprocess:
                _run_pending_inprocess(ledger, pending, policy)
            else:
                method = _pick_start_method(
                    start_method
                    if start_method is not None
                    else settings.start_method
                )
                _run_pending_supervised(
                    ledger, pending, workers, method, policy, chaos
                )
    finally:
        if journal is not None:
            journal.close()
    wall_s = time.perf_counter() - started  # flexsfp: allow(det-wallclock)

    results = sorted(ledger.completed.values(), key=lambda shard: shard.index)
    completeness = Completeness(
        shards=resolved.shards,
        completed=len(results),
        failed=tuple(
            ledger.failed[index] for index in sorted(ledger.failed)
        ),
        resumed=resumed_indices,
        retries=telemetry.retries,
    )
    return FleetRunResult(
        spec=resolved,
        workers=workers,
        shards=tuple(results),
        merged_metrics=merge_metrics(shard.metrics for shard in results),
        merged_histograms=merge_histogram_states(
            shard.histograms for shard in results
        ),
        wall_s=wall_s,
        completeness=completeness,
        supervisor=telemetry.metric_values(),
    )

