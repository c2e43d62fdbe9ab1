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
  messages to ranks owned by another worker are held until the round
  ends and then travel as ONE pickled frame per destination worker,
  ``(epoch, sender, [(dest, src, envelope), ...])``, over that worker's
  ``mp.Queue`` inbox — each envelope is exactly the comm layer's one
  wire format, a ``bflush`` envelope of a flushed buffer (or a
  reliability frame around one, or an ack), so the wire format is the
  sim wire format, serialized and batched;
- the **driver** keeps the SPMD program counter: it broadcasts commands
  over per-worker pipes (:class:`ProcessTransport`) to the application
  object each worker's bootstrap built (DNND: a rank host over the
  worker's ranks), and :class:`ProcessWorld` gives the DNND driver the
  same barrier / phase / metrics / fault surface :class:`YGMWorld` does
  — its own barrier log included — plus the merged ``rank -> value``
  replies of the workers' hosts.

A barrier is a loop of bulk-synchronous supersteps, the sim barrier's
:meth:`YGMWorld.step` loop spread over the workers.  Its first
``__round__`` only ships what the sections staged; each later one names
a worker the workers that shipped it a frame in the previous round, and
the worker takes exactly those frames, runs one ``step()``, flushes and
ships at most one frame per destination worker, replying ``(missing,
ran, idle, shipped)``.  The barrier completes at the first round in
which no worker ran a handler, shipped a frame or called its world busy
(nothing queued, unacked or held back by its injector): every frame
shipped before that round was awaited by name, so none is left in
flight.  No wait is unbounded — a worker missing a frame after
:data:`FRAME_WAIT_S` replies with the shortfall, and the driver either
finds a dead worker (:class:`~repro.errors.RankFailureError`) or asks
again.  The same reply carries the worker's counters as a
*delta* (:meth:`YGMWorld.export_delta`: its open window, handed over
whole), which the driver adds to its log's running totals on arrival —
the only way counters cross the process boundary.  A delta that was
shipped is counted for good; one that was not died with its worker, so
a respawned worker's zeroed counters can neither erase nor repeat
history.  Frames are stamped with an **epoch**: ``reset_in_flight``
bumps it everywhere and the driver stops expecting anything, so frames
lost inside a crashed worker (or stale frames from before a recovery)
can never wedge or corrupt a later barrier — a stale-epoch frame is
discarded when taken.

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
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...config import ClusterConfig
from ...errors import (ConfigError, RankFailureError, ReproError,
                       RuntimeStateError)
from ..metrics import NULL_METRICS, MetricsRegistry
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

#: How long a worker waits for a frame a round expects before it
#: reports the shortfall (the driver asks again while every worker
#: lives) — the one bound on any wait for a frame.
FRAME_WAIT_S = 1.0


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
    another worker is held for that worker until the round ends
    (:meth:`ship`).  That is the only thing it overrides (:meth:`_put`):
    the delivery decision — failure marks, the fault injector — is the
    base class's, taken once, at the sender.  ``outboxes[w]`` is worker
    ``w``'s inbox queue, this worker's own included.
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
        # This round's remote deliveries, per destination worker.
        self._outgoing: Dict[int, list] = {}
        # Frames of a sender already a round ahead, by sender.
        self._early: Dict[int, list] = {}

    def begin_epoch(self, epoch: int) -> None:
        """Enter ``epoch``: discard what this worker holds for the wire
        and what sits in its inbox; a frame of another epoch still on
        its way is discarded when taken."""
        inbox = self._outboxes[self.worker_id]
        while True:
            try:
                inbox.get_nowait()
            except queue_mod.Empty:
                break
        self.epoch = int(epoch)
        self._outgoing = {}
        self._early = {}

    def _put(self, src: int, dest: int, item: Any) -> None:
        if dest in self.owned:
            self._mailboxes[dest].append((src, item))
        else:
            self._outgoing.setdefault(self._worker_of[dest], []).append(
                (dest, src, item))

    def ship(self) -> List[int]:
        """Put the round's remote deliveries on the wire — one frame
        ``(epoch, sender, [(dest, src, envelope), ...])`` per destination
        worker — and return the workers a frame went to."""
        out, self._outgoing = self._outgoing, {}
        for w, entries in out.items():
            self._outboxes[w].put((self.epoch, self.worker_id, entries))
        return sorted(out)

    def take(self, senders) -> List[int]:
        """Land the frame each worker in ``senders`` shipped here last
        round, in sender order, into the owned mailboxes (entries for a
        rank marked failed are dropped).  Gives up once no frame comes
        for :data:`FRAME_WAIT_S`; returns the senders whose frame has
        not come.  A sender is at most one round ahead (the driver
        starts a round only when every worker finished the last), so a
        frame from a sender not awaited is kept for the next round; a
        frame of another epoch is discarded."""
        want = set(senders)
        got = {s: self._early.pop(s) for s in want & self._early.keys()}
        inbox = self._outboxes[self.worker_id]
        while len(got) < len(want):
            try:
                epoch, sender, entries = inbox.get(timeout=FRAME_WAIT_S)
            except queue_mod.Empty:
                break
            if epoch != self.epoch:
                continue
            if sender in want and sender not in got:
                got[sender] = entries
            else:
                self._early[sender] = entries
        failed = self.marked_failed
        for sender in sorted(got):
            for dest, src, item in got[sender]:
                if dest not in failed:
                    self._mailboxes[dest].append((src, item))
        return sorted(want - got.keys())


class WorkerComm:
    """Worker-side runtime glue between the command loop and the
    in-process :class:`YGMWorld` over a :class:`WorkerTransport`."""

    def __init__(self, worker_id: int, owned,
                 transport: WorkerTransport) -> None:
        self.worker_id = int(worker_id)
        self.owned: List[int] = [int(r) for r in owned]
        self.transport = transport

    def round(self, world, senders) -> Tuple[List[int], int, bool, List[int]]:
        """One superstep of a barrier: land the frames ``senders``
        shipped here last round, run one :meth:`YGMWorld.step`, flush
        what its handlers buffered (so a remote reply is one round away,
        as a sim step's is) and ship.  ``senders=None`` opens a barrier:
        the round only flushes and ships what the sections staged, so
        the first step sees every staged message, co-resident or remote,
        and a rank runs each handler once per round as it does on sim.
        Returns ``(missing, ran, idle, shipped)``: the senders whose
        frame has not come (then nothing ran — the driver asks again
        with just those), the messages the step applied, its idle
        verdict, and the workers a frame went to."""
        ran, idle = 0, False
        if senders is not None:
            missing = self.transport.take(senders)
            if missing:
                return missing, 0, False, []
            ran, idle = world.step()
        world.flush_all()
        return [], ran, idle, self.transport.ship()

    def reset(self, epoch: int, world) -> None:
        """Epoch change: discard everything in flight."""
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
    comm = WorkerComm(worker_id, owned, transport)
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
                conn.send(("ok", (comm.round(app.world, payload),
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
        epoch and are discarded."""
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
        """Broadcast ``(cmd, payload)`` to every live worker — or, with
        ``per_worker``, to the live workers it names, worker ``w``
        receiving ``per_worker[w]`` — and collect replies.  Workers
        found dead on the way are recorded
        (their ranks marked failed) and simply absent from the result —
        the caller decides whether that is a :class:`RankFailureError`.
        A worker-side failure is raised here once every reply is in (the
        pipes stay in step): a ``ReproError`` as itself, with the worker
        traceback as its ``__cause__``, anything else as
        :class:`RuntimeStateError`."""
        self._check_alive()
        self.liveness_sweep()
        targets = (self.alive_workers() if per_worker is None else
                   [w for w in per_worker if w not in self.dead_workers])
        sent = []
        for w in targets:
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
        drain + discard their inboxes, forget held and early frames, and
        clear their worlds' in-flight buffers."""
        self.epoch += 1
        self.command_all(CMD_RESET, {"epoch": self.epoch})


class ProcessWorld:
    """The driver's comm-layer facade for the process backend.

    Presents the slice of the :class:`YGMWorld` surface the DNND driver
    uses — barriers, the barrier log and its phase labels, fault
    bookkeeping, exclusion/readmission, in-flight reset — plus the
    rank-host surface (:meth:`run_section` / :meth:`command`, each
    ``rank -> value``), implemented as command broadcasts to the rank
    hosts the workers hold.  The workers' deltas are absorbed into
    :attr:`log` as they arrive; what the driver itself counts — the
    sections it broadcast, the collectives its transport ran, the
    crashes its injector (the crash clock, ``cluster.injector``) fired
    and repaired, the failures detected here — goes into the log's open
    window.  Totals, phase tables and fault counts are read from the log.
    """

    def __init__(self, cluster: ProcessTransport,
                 metrics: MetricsRegistry | None = None) -> None:
        self.cluster = cluster
        self.world_size = cluster.world_size
        self.log = BarrierLog()
        self._counts = self.log.window.counts
        cluster.count_into(self._counts)
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else NULL_METRICS)
        if metrics is not None:
            metrics.log = self.log
        self.excluded_ranks: Set[int] = set()
        # Per worker, the workers that shipped it a frame last round.
        self._expect: Dict[int, List[int]] = {}

    # -- barrier / quiescence -------------------------------------------------

    def barrier(self) -> float:
        """Run supersteps (:meth:`_superstep`) until one moves nothing,
        then log the barrier."""
        self._superstep(first=True)
        while self._superstep():
            pass
        elapsed = self.cluster.ledger.barrier(self.cluster.net)
        self.log.commit(self.metrics.now(), elapsed, 1.0)
        return elapsed

    def _superstep(self, first: bool = False) -> bool:
        """One ``__round__`` on every live worker: it lands the frames
        shipped to it last round (the driver names their senders), runs
        one :meth:`YGMWorld.step` and ships at most one frame per
        destination worker — or, for the ``first`` round of a barrier,
        only ships what the sections staged; the counter delta each
        reply carries goes to the log.  A worker whose frames did not come within
        :data:`FRAME_WAIT_S` reports the shortfall and is asked again
        while every worker lives — a dead one raises
        :class:`RankFailureError` instead.  Returns whether anything
        moved: a handler ran, a frame was shipped or a world is not
        idle."""
        cluster = self.cluster
        asks = {w: None if first else self._expect.get(w, [])
                for w in cluster.alive_workers()}
        expect: Dict[int, List[int]] = {}
        moved = False
        while asks:
            cluster.liveness_sweep()
            self._check_crashed()
            replies = cluster.command_all(CMD_ROUND, per_worker=asks)
            asks = {}
            for w, ((missing, ran, idle, shipped), delta) in replies.items():
                self.log.absorb(delta)
                if missing:
                    asks[w] = missing
                    continue
                moved = moved or ran > 0 or bool(shipped) or not idle
                for dest in shipped:
                    expect.setdefault(dest, []).append(w)
        self._check_crashed()
        self._expect = expect
        return moved

    def _check_crashed(self) -> None:
        failed = self.cluster.failed_ranks() - self.excluded_ranks
        if failed:
            self._counts["faults.detected"] += len(failed)
            raise RankFailureError(failed)

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
        self._counts["executor.dispatches"] += 1
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
        worker — are discarded, never awaited)."""
        self._expect = {}
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

