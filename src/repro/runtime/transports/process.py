"""Process transport: per-rank worker processes over the driver's dataset.

The multi-core execution backend (``backend="process"``) escapes the
GIL by giving every rank real OS-process parallelism:

- the **dataset** — dense array or sparse records alike — reaches a
  worker as one of its start parameters (:meth:`ProcessTransport.start`):
  under ``fork`` the child inherits the driver's object copy-on-write
  and nothing is copied; under ``spawn`` / ``forkserver`` it is pickled
  once per worker.  The transport holds no segment, file or handle for
  it, so there is nothing to unlink on any exit path;
- each **worker process** owns a contiguous-stride subset of ranks
  (``rank % nworkers``) and runs a full
  :class:`~repro.runtime.ygm.YGMWorld` over a :class:`WorkerTransport`:
  messages between co-resident ranks stay in-process deque appends,
  messages to ranks owned by another worker travel as pickled frames
  ``(epoch, dest, src, payload)`` over that worker's ``mp.Queue`` inbox
  — the payload is exactly the comm layer's one wire format, a
  ``bflush`` envelope of a flushed buffer (or a reliability frame
  around one, or an ack), so the wire format is the sim wire format,
  serialized;
- the **driver** keeps the SPMD program counter: it broadcasts commands
  over per-worker pipes (:class:`ProcessTransport`) to the application
  object each worker's bootstrap built (DNND: a rank host over the
  worker's ranks), and :class:`ProcessWorld` gives the DNND driver the
  same barrier / phase / metrics / fault surface :class:`YGMWorld` does
  — its own barrier log included — plus the merged ``rank -> value``
  replies of the workers' hosts.

Quiescence across processes is a counting protocol: a barrier loops
``__round__`` commands, each worker drains its inbox + runs delivery
ticks (:meth:`YGMWorld.step`) until a pass moves nothing and reports
``(frames_sent, frames_received, handlers_run, idle)``; the barrier
completes when no worker ran a handler, every worker's world calls
itself idle (nothing queued, unacked or held back by its injector)
**and** the global sent/received frame counts agree (frames still
sitting in a queue's feeder thread keep the counts unequal).  The same
reply carries the worker's counters as a
*delta* (:meth:`YGMWorld.export_delta`: what changed since its previous
reply), which the driver adds to its log's running totals on arrival —
the only way counters cross the process boundary.  A delta that was
shipped is counted for good; one that was not died with its worker, so
a respawned worker's zeroed counters can neither erase nor repeat
history.  Counters and frames are stamped with an **epoch**:
``reset_in_flight`` bumps the epoch and zeroes the counters everywhere,
so frames lost inside a crashed worker (or stale frames from before a
recovery) can never wedge or corrupt a later barrier — stale-epoch
frames are discarded on ingest without being counted.

Fault plans run here as they do on sim: the worker's transport is the
base :class:`~.base.Transport` with only :meth:`~.base.Transport._put`
overridden, so its bootstrap attaches an injector (and the comm layer
reliable delivery) exactly where the sim world's are, perturbing and
acking the same flushed-buffer envelopes; the plan's crashes stay with
the driver, whose injector is the crash clock
(:meth:`ProcessTransport.kill_rank` makes one real).

Failure semantics: a worker that dies (or is killed by a crash-plan
fault) is detected at the next command round-trip (broken pipe / EOF /
liveness sweep); *all* ranks it owned are marked failed and surface as
one :class:`~repro.errors.RankFailureError` through the same supervisor
path the sim backend uses.  ``repair_all`` respawns dead workers with
the same start parameters, dataset included, and their bootstrap builds
fresh rank state over it.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import queue as queue_mod
import signal
import traceback
import weakref
from collections import Counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...config import ClusterConfig
from ...errors import (ConfigError, RankFailureError, ReproError,
                       RuntimeStateError)
from ..instrumentation import Delta, FaultStats
from ..metrics import NULL_METRICS, MetricsRegistry, publish_comm_metrics
from ..netmodel import NullLedger
from ..tracing import BarrierLog
from .base import Transport

#: Environment override for the multiprocessing start method.
START_ENV = "REPRO_PROCESS_START"

#: Runtime-level worker commands (everything else goes to the app's
#: ``dispatch``).  Dunder-framed so application command names can never
#: collide with them.
CMD_ROUND = "__round__"
CMD_RESET = "__reset__"
CMD_STOP = "__stop__"


def _start_method(requested: str | None = None) -> str:
    """Pick the mp start method: explicit arg > env > fork-if-available.

    ``fork`` keeps worker spawn cheap (no re-import; the start
    parameters, dataset included, are inherited, not copied); platforms
    without it (Windows, some macOS configs) fall back to ``spawn``,
    which works because workers rebuild all state from their pickled
    start parameters.
    """
    method = requested or os.environ.get(START_ENV, "")
    if method:
        if method not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                f"unsupported multiprocessing start method {method!r}; "
                f"available: {multiprocessing.get_all_start_methods()}")
        return method
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


def _weak_shutdown_guard(transport: "ProcessTransport") -> Callable[[], None]:
    """An atexit callback that shuts the transport down *if it is still
    alive* — holding only a weak reference, so registering it never
    pins the transport (and its worker pool) until interpreter exit."""
    ref = weakref.ref(transport)

    def guard() -> None:
        t = ref()
        if t is not None:
            t.shutdown()
    return guard


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class WorkerTransport(Transport):
    """The transport a worker's in-process :class:`YGMWorld` runs over.

    It is a full ``world_size``-wide transport (so rank ids, topology,
    and off-node accounting match the sim backend exactly), but only the
    *owned* ranks' mailboxes ever fill: a delivery to a rank owned by
    another worker is serialized as an epoch-stamped frame onto that
    worker's inbox queue instead.  That is the only thing it overrides
    (:meth:`_put`): the delivery decision — failure marks, the fault
    injector — is the base class's, taken once, at the sender.
    """

    def __init__(self, config: ClusterConfig, owned, worker_of,
                 outboxes, worker_id: int) -> None:
        super().__init__(config, None,
                         NullLedger(world_size=config.world_size))
        self.worker_id = int(worker_id)
        self.owned: FrozenSet[int] = frozenset(int(r) for r in owned)
        self._worker_of: List[int] = list(worker_of)
        self._outboxes = outboxes
        self.epoch = 0
        self.frames_sent = 0
        self.frames_received = 0

    def begin_epoch(self, epoch: int) -> None:
        """Enter ``epoch``: zero the frame counters.  Frames stamped
        with any other epoch are discarded on ingest."""
        self.epoch = int(epoch)
        self.frames_sent = 0
        self.frames_received = 0

    def _put(self, src: int, dest: int, item: Any) -> None:
        if dest in self.owned:
            self._mailboxes[dest].append((src, item))
            return
        self.frames_sent += 1
        self._outboxes[self._worker_of[dest]].put(
            (self.epoch, dest, src, item))

    def ingest(self, inbox) -> int:
        """Drain every frame currently in ``inbox`` (non-blocking) into
        the local mailboxes.  Returns the number of frames that produced
        local work; every *current-epoch* frame counts as received even
        if its destination has since been marked failed (the sender
        counted it as sent), stale-epoch frames count as nothing."""
        appended = 0
        while True:
            try:
                epoch, dest, src, item = inbox.get_nowait()
            except queue_mod.Empty:
                return appended
            if epoch != self.epoch:
                continue
            self.frames_received += 1
            if self.marked_failed and dest in self.marked_failed:
                continue
            self._mailboxes[dest].append((src, item))
            appended += 1


class WorkerComm:
    """Worker-side runtime glue between the command loop, the inbox
    queue, and the in-process :class:`YGMWorld`."""

    def __init__(self, worker_id: int, nworkers: int, owned,
                 transport: WorkerTransport, inbox,
                 config: ClusterConfig) -> None:
        self.worker_id = int(worker_id)
        self.nworkers = int(nworkers)
        self.owned: List[int] = [int(r) for r in owned]
        self.transport = transport
        self.inbox = inbox
        self.config = config

    def round(self, world) -> Tuple[int, int, int, bool]:
        """One barrier round: ingest + :meth:`YGMWorld.step` until a
        pass moves nothing (the driver paces the next one, so a world
        waiting for acks or delayed frames ticks once per round, not at
        CPU speed); report ``(frames_sent, frames_received,
        handlers_run, idle)`` — cumulative for the current epoch, this
        round's, and the last step's verdict respectively."""
        activity = 0
        while True:
            ingested = self.transport.ingest(self.inbox)
            ran, idle = world.step()
            activity += ran
            if ingested == 0 and ran == 0:
                break
        return (self.transport.frames_sent, self.transport.frames_received,
                activity, idle)

    def reset(self, epoch: int, world) -> None:
        """Epoch change: discard everything in flight, locally and in
        the inbox, then zero the frame counters."""
        while True:
            try:
                self.inbox.get_nowait()
            except queue_mod.Empty:
                break
        self.transport.begin_epoch(epoch)
        world.reset_in_flight()


def worker_main(worker_id: int, nworkers: int, config: ClusterConfig,
                conn, inboxes, bootstrap: Tuple[str, str], params: dict,
                start_epoch: int) -> None:
    """Entry point of one rank-worker process.

    ``bootstrap`` names ``(module, function)``; the function is imported
    in the child and called as ``fn(comm, params)``.  It must return an
    *app* object exposing ``world`` (the in-process :class:`YGMWorld`)
    and ``dispatch(cmd, payload)`` (DNND's is a ``RankHost``); every
    non-runtime command received on the pipe is forwarded to it.
    Replies are ``("ok", value)`` or ``("error", (exception or None,
    formatted_traceback))`` — a library error (``ReproError``) travels
    as itself and the driver re-raises it with the worker traceback
    attached, anything else as the traceback text.  A ``__round__``
    reply is ``(round counts, delta)``.
    """
    owned = [r for r in range(config.world_size)
             if r % nworkers == worker_id]
    worker_of = [r % nworkers for r in range(config.world_size)]
    transport = WorkerTransport(config, owned, worker_of, inboxes, worker_id)
    transport.begin_epoch(start_epoch)
    comm = WorkerComm(worker_id, nworkers, owned, transport,
                      inboxes[worker_id], config)
    module = importlib.import_module(bootstrap[0])
    app = getattr(module, bootstrap[1])(comm, params)
    while True:
        try:
            cmd, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if cmd == CMD_STOP:
                conn.send(("ok", None))
                break
            if cmd == CMD_ROUND:
                conn.send(("ok", (comm.round(app.world),
                                  app.world.export_delta())))
            elif cmd == CMD_RESET:
                comm.reset(payload["epoch"], app.world)
                conn.send(("ok", None))
            else:
                conn.send(("ok", app.dispatch(cmd, payload)))
        except Exception as exc:
            typed = exc if isinstance(exc, ReproError) else None
            try:
                conn.send(("error", (typed, traceback.format_exc())))
            except (BrokenPipeError, OSError):  # pragma: no cover
                break


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------

class ProcessTransport(Transport):
    """Driver-side transport: owns the worker pool, the command pipes,
    the inbox queues, and the epoch.

    Rank → worker mapping is ``rank % nworkers`` (strided, so
    consecutive ranks land on different workers and per-node topology
    stays mixed, like round-robin MPI placement).  Collectives run on
    the driver over per-rank contribution lists — the same contract as
    every other transport, so ``transport.collectives`` is conformant.
    """

    def __init__(self, config: ClusterConfig, workers: int = 0,
                 start_method: str | None = None) -> None:
        super().__init__(config, None,
                         NullLedger(world_size=config.world_size))
        ws = config.world_size
        self.nworkers = max(1, min(int(workers) if workers else ws, ws))
        self.worker_of: List[int] = [r % self.nworkers for r in range(ws)]
        self.owned_by: List[List[int]] = [
            [r for r in range(ws) if r % self.nworkers == w]
            for w in range(self.nworkers)]
        self._ctx = multiprocessing.get_context(_start_method(start_method))
        self.epoch = 0
        self._procs: List[Any] = [None] * self.nworkers
        self._conns: List[Any] = [None] * self.nworkers
        self._inboxes = [self._ctx.Queue() for _ in range(self.nworkers)]
        self.dead_workers: Set[int] = set()
        self._bootstrap: Optional[Tuple[str, str]] = None
        self._params: Optional[dict] = None
        self.started = False
        # atexit must not hold a strong reference either (it would pin
        # the transport until interpreter exit and defeat GC teardown);
        # shutdown() discards the guard.
        self._atexit_guard = _weak_shutdown_guard(self)
        atexit.register(self._atexit_guard)

    # -- lifecycle -----------------------------------------------------------

    def start(self, bootstrap: Tuple[str, str], params: dict) -> None:
        """Spawn the full worker pool; each worker runs ``bootstrap``."""
        if self.started:
            raise RuntimeStateError("process transport already started")
        self._bootstrap = bootstrap
        self._params = params
        self.started = True
        for w in range(self.nworkers):
            self._spawn(w)

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(w, self.nworkers, self.config, child_conn, self._inboxes,
                  self._bootstrap, self._params, self.epoch),
            name=f"repro-rank-worker-{w}", daemon=True)
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def shutdown(self) -> None:
        if not self._alive:
            return
        for w in range(self.nworkers):
            conn = self._conns[w]
            if conn is None or w in self.dead_workers:
                continue
            try:
                conn.send((CMD_STOP, None))
            except (BrokenPipeError, OSError):
                pass
        for w, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        for q in self._inboxes:
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass
        try:
            atexit.unregister(self._atexit_guard)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        super().shutdown()

    # -- failure detection / injection ---------------------------------------

    def _on_worker_death(self, w: int) -> Set[int]:
        """Record worker ``w`` as dead; mark all its ranks failed.
        Returns the ranks newly marked."""
        if w in self.dead_workers:
            return set()
        self.dead_workers.add(w)
        newly = set(self.owned_by[w]) - self.marked_failed
        self.mark_failed(self.owned_by[w])
        conn = self._conns[w]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            self._conns[w] = None
        return newly

    def kill_rank(self, rank: int) -> None:
        """SIGKILL the worker owning ``rank`` (crash-plan injection).
        Every rank co-resident in that worker dies with it — real
        process-failure semantics."""
        w = self.worker_of[int(rank)]
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
        self._on_worker_death(w)

    def liveness_sweep(self) -> None:
        """Detect workers that died without a command in flight."""
        for w in range(self.nworkers):
            if w in self.dead_workers:
                continue
            proc = self._procs[w]
            if proc is not None and not proc.is_alive():
                self._on_worker_death(w)

    def repair_all(self) -> None:
        """Clear failure marks and respawn dead workers.  Respawned
        workers bootstrap from scratch (the start parameters again,
        fresh rank state) at the *current* epoch; their old inbox
        queues are reused — any stale frames in them are from a previous
        epoch and are discarded on ingest."""
        super().repair_all()
        for w in sorted(self.dead_workers):
            self._spawn(w)
        self.dead_workers.clear()

    # -- command fabric ------------------------------------------------------

    def alive_workers(self) -> List[int]:
        return [w for w in range(self.nworkers) if w not in self.dead_workers]

    def command_all(self, cmd: str, payload: Any = None,
                    per_worker: Dict[int, Any] | None = None
                    ) -> Dict[int, Any]:
        """Broadcast ``(cmd, payload)`` to every live worker — worker
        ``w`` receives ``per_worker[w]`` instead where given — and
        collect replies.  Workers found dead on the way are recorded
        (their ranks marked failed) and simply absent from the result —
        the caller decides whether that is a :class:`RankFailureError`.
        A worker-side failure is raised here once every reply is in (the
        pipes stay in step): a ``ReproError`` as itself, with the worker
        traceback as its ``__cause__``, anything else as
        :class:`RuntimeStateError`."""
        self._check_alive()
        self.liveness_sweep()
        sent = []
        for w in self.alive_workers():
            mine = payload if per_worker is None else per_worker[w]
            try:
                self._conns[w].send((cmd, mine))
                sent.append(w)
            except (BrokenPipeError, OSError):
                self._on_worker_death(w)
        results: Dict[int, Any] = {}
        error = None
        for w in sent:
            try:
                status, value = self._conns[w].recv()
            except (EOFError, OSError):
                self._on_worker_death(w)
                continue
            if status != "error":
                results[w] = value
            elif error is None:
                error = (w, *value)
        if error is not None:
            w, exc, trace = error
            where = RuntimeStateError(
                f"worker {w} failed running {cmd!r}:\n{trace}")
            if exc is None:
                raise where
            raise exc from where
        return results

    def bump_epoch(self) -> None:
        """Advance the epoch and reset every live worker into it: they
        drain + discard their inboxes, zero frame counters, and clear
        their worlds' in-flight buffers."""
        self.epoch += 1
        self.command_all(CMD_RESET, {"epoch": self.epoch})


class ProcessWorld:
    """The driver's comm-layer facade for the process backend.

    Presents the slice of the :class:`YGMWorld` surface the DNND driver
    uses — barriers, the barrier log and its phase labels, metrics
    publication, fault bookkeeping, exclusion/readmission, in-flight
    reset — plus the rank-host surface (:meth:`run_section` /
    :meth:`command`, each ``rank -> value``), implemented as command
    broadcasts to the rank hosts the workers hold.  The workers' deltas
    are absorbed into :attr:`log` as they arrive, and so is what the
    driver itself saw — the crashes its injector (the crash clock,
    ``cluster.injector``) fired and repaired, the failures detected
    here: :attr:`fault_stats` at every barrier; totals, phase tables and
    fault counts are read from the log.
    """

    def __init__(self, cluster: ProcessTransport,
                 metrics: MetricsRegistry | None = None) -> None:
        self.cluster = cluster
        self.world_size = cluster.world_size
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else NULL_METRICS)
        self.log = BarrierLog()
        #: Driver-side fault events, shared with the crash clock.
        self.fault_stats: FaultStats = (
            cluster.injector.stats if cluster.injector is not None
            else FaultStats())
        self._faults_logged: Counter = Counter()
        self.excluded_ranks: Set[int] = set()
        #: Sections broadcast to the workers (``executor.dispatches``).
        self.dispatches = 0

    # -- barrier / quiescence -------------------------------------------------

    def barrier(self) -> float:
        """Run ``__round__`` commands until the cluster is quiescent —
        no worker ran a handler, every worker's world is idle
        (:meth:`YGMWorld.step`) and the global frame counts agree —
        absorbing the counter delta each reply carries, then log the
        superstep."""
        try:
            while True:
                frames_sent = frames_recv = activity = 0
                idle = True
                replies = self.cluster.command_all(CMD_ROUND)
                for counts, delta in replies.values():
                    sent, received, ran, worker_idle = counts
                    self.log.absorb(delta)
                    frames_sent += sent
                    frames_recv += received
                    activity += ran
                    idle = idle and worker_idle
                self._check_crashed()
                if activity == 0 and frames_sent == frames_recv and idle:
                    break
        finally:
            self._log_driver_faults()
        elapsed = self.cluster.ledger.barrier(self.cluster.net)
        self.log.commit(self.metrics.now(), elapsed, 1.0)
        # Delayed copies are released before a worker reports idle, so
        # none is held back at a completed barrier.
        publish_comm_metrics(
            self, None if self.cluster.injector is None else 0)
        return elapsed

    def _check_crashed(self) -> None:
        failed = self.cluster.failed_ranks() - self.excluded_ranks
        if failed:
            self.fault_stats.detected += len(failed)
            raise RankFailureError(failed)

    def _log_driver_faults(self) -> None:
        """Absorb what :attr:`fault_stats` counted since the last call
        (completed barrier or not, like a sim world's export)."""
        now = Counter(self.fault_stats.counts())
        self.log.absorb(Delta(counts=now - self._faults_logged))
        self._faults_logged = now

    # -- rank-host surface ------------------------------------------------------

    def _merge_replies(self, replies: Dict[int, Any]) -> Dict[int, Any]:
        """Per-worker ``rank -> value`` replies as one dict; a worker
        lost on the way surfaces exactly like a crashed rank at a sim
        barrier."""
        self._check_crashed()
        return {rank: value for reply in replies.values()
                for rank, value in (reply or {}).items()}

    def run_section(self, name: str, params: dict | None = None
                    ) -> Dict[int, Any]:
        """Run the named SPMD section on every worker's host (each
        covers its owned, non-excluded ranks)."""
        self.dispatches += 1
        return self._merge_replies(self.cluster.command_all(
            "section", {"name": name, "params": params or {}}))

    def command(self, cmd: str, payload: dict | None = None
                ) -> Dict[int, Any]:
        """Run a host command on every worker's host.  A ``by_rank``
        entry of the payload (``rank -> arguments``) is cut per worker,
        so each receives only its owned ranks' share."""
        per_worker = None
        if payload and "by_rank" in payload:
            by_rank = payload["by_rank"]
            per_worker = {
                w: {**payload, "by_rank": {r: by_rank[r] for r in owned}}
                for w, owned in enumerate(self.cluster.owned_by)}
        return self._merge_replies(
            self.cluster.command_all(cmd, payload, per_worker))

    def set_phase(self, phase: str, iteration: int | None = None) -> None:
        """Label the barrier records that follow (driver-side only: the
        workers never need to know the phase)."""
        self.log.enter(phase, iteration)

    # -- fault tolerance surface ----------------------------------------------

    def reset_in_flight(self) -> None:
        """Abandon every in-flight message cluster-wide by entering a
        new epoch (stale frames — including any lost inside a dead
        worker — are excluded from all future quiescence counting)."""
        self.cluster.bump_epoch()

    def exclude_ranks(self, ranks) -> None:
        ranks = {int(r) for r in ranks}
        self.excluded_ranks |= ranks
        self.cluster.mark_failed(ranks)
        self.cluster.command_all("exclude", {"ranks": sorted(ranks)})

    def readmit_ranks(self) -> set:
        """End degraded mode: respawn dead workers, clear failure marks
        everywhere, and return the set of previously excluded ranks."""
        repaired = set(self.excluded_ranks)
        self.excluded_ranks = set()
        self.cluster.repair_all()
        self.cluster.command_all("readmit", {})
        return repaired

