"""Pickle round-trip properties for the process backend's wire frames.

The process transport ships one frame per destination worker per
barrier round: ``(items, runs)``, pickled once by the sender and relayed
unopened by the driver.  ``items`` are the comm layer's envelopes —
``("bflush", envelope id, rows)``, the reliability ``rel`` frame around
one, an ``ack`` — as ``[(dest, src, item), ...]``; ``runs`` are the rows
in flight to the worker's ranks, ``(handler, dest, columns)`` cut out of
the sender's runs: one array per handler argument (gids as ``int64``
columns, distances and bounds as ``float64`` columns, often slices of a
larger run; a per-message handler has one object column of argument
tuples).  An envelope's ``rows`` are runs of the same shape.  Every
shape must survive pickle.dumps/loads bit-exactly."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.transports.base import cut


def _np_scalars():
    return st.one_of(
        st.integers(-2**31, 2**31 - 1).map(np.int64),
        st.floats(allow_nan=False, width=64).map(np.float64),
    )


def _atoms():
    return st.one_of(
        st.integers(-2**62, 2**62),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        _np_scalars(),
    )


def _args():
    """A handler payload: a tuple of atoms or small nested tuples."""
    return st.tuples(*[st.one_of(_atoms(), st.tuples(_atoms(), _atoms()))
                       for _ in range(2)])


_HANDLER = st.sampled_from(
    ["init_req", "init_resp", "rev_new", "rev_old", "check_unopt",
     "feature_unopt", "check_opt", "feature_opt", "distance_reply",
     "opt_rev_edge"])
_SEQ = st.integers(0, 2**31)


@st.composite
def _run(draw):
    """One run in flight: id columns plus an optional distance column,
    cut out of a longer run, with its destination column."""
    rows = draw(st.integers(1, 8))
    lo = draw(st.integers(0, 3))
    ids = st.lists(st.integers(0, 2**31 - 1), min_size=rows + lo,
                   max_size=rows + lo)
    columns = [np.array(draw(ids), dtype=np.int64)[lo:] for _ in range(2)]
    if draw(st.booleans()):
        columns.append(np.array(draw(st.lists(
            st.floats(allow_nan=False, width=64) | st.just(np.inf),
            min_size=rows + lo, max_size=rows + lo)), dtype=np.float64)[lo:])
    dest = np.array(draw(st.lists(st.integers(0, 63), min_size=rows,
                                  max_size=rows)), dtype=np.int64)
    return (draw(_HANDLER), dest, tuple(columns))


def _calls(rows):
    """The one column of a per-message run: argument tuples."""
    column = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        column[i] = row
    return (column,)


@st.composite
def _per_message_run(draw):
    calls = draw(st.lists(_args(), min_size=1, max_size=4))
    return ("noop", np.zeros(len(calls), dtype=np.int64), _calls(calls))


def _envelopes():
    """All item tags: the flushed buffer's envelope id and rows, the
    reliability frame around one, and an ack."""
    bflush = st.tuples(st.just("bflush"), st.integers(-2**40, 2**40),
                       st.lists(_run() | _per_message_run(), max_size=2))
    rel = st.tuples(st.just("rel"), _SEQ, bflush)
    ack = st.tuples(st.just("ack"),
                    st.lists(_SEQ, max_size=8).map(tuple))
    return st.one_of(bflush, rel, ack)


def _frames():
    """The cross-worker frame of one round: ``([(dest rank, src rank,
    item), ...], [run, ...])``."""
    entry = st.tuples(st.integers(0, 63), st.integers(0, 63), _envelopes())
    return st.tuples(st.lists(entry, max_size=4),
                     st.lists(_run() | _per_message_run(), max_size=4))


def _eq(a, b) -> bool:
    """Structural equality that treats numpy scalars/arrays by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape):
            return False
        if a.dtype == object:
            return all(_eq(x, y) for x, y in zip(a, b))
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    return bool(a == b) and type(a) is type(b)


@given(frame=_frames())
@settings(max_examples=200, deadline=None)
def test_frame_pickle_round_trip(frame):
    assert _eq(pickle.loads(pickle.dumps(frame)), frame)


@given(env=_envelopes())
@settings(max_examples=200, deadline=None)
def test_envelope_pickle_round_trip(env):
    assert _eq(pickle.loads(pickle.dumps(env)), env)


def test_distance_column_round_trip():
    """A float column of a run must come back bit-identical from a
    pickled copy — the Type 3 distances a worker ships are the ones its
    peer merges — and a sliced run must ship only its rows."""
    rng = np.random.default_rng(3)
    d = rng.normal(size=64)
    ids = np.arange(64, dtype=np.int64)
    run = ("distance_reply", ids[8:40] % 4,
           (ids[8:40], ids[40:8:-1], d[8:40]))
    blob = pickle.dumps(run)
    out = pickle.loads(blob)
    assert _eq(out, run)
    assert out[2][2].tobytes() == d[8:40].tobytes()
    assert len(blob) < 4 * 32 * 8 + 600


def test_frame_a_worker_ships_round_trips():
    """The frame ``WorkerTransport.ship`` pickles unpickles to what
    went in — every item in order (an envelope's item with its rows),
    the rows for the peer's ranks cut out of each run, arrays bit for
    bit — and the receiver's ``land`` puts each item in its rank's
    mailbox and the rows in flight there."""
    from repro.config import ClusterConfig
    from repro.runtime.transports.process import WorkerTransport

    cfg = ClusterConfig(nodes=1, procs_per_node=4)
    t = WorkerTransport(cfg, [0, 2], [0, 1, 0, 1], 0)
    peer = WorkerTransport(cfg, [1, 3], [0, 1, 0, 1], 1)
    ids = np.arange(10, dtype=np.int64)
    dest = np.array([1, 2, 3, 1], dtype=np.int64)
    rows = [("rev_new", dest[[0, 3]], (ids[[0, 3]],))]
    sent = [(1, 0, ("bflush", 5, rows)),
            (3, 2, ("rel", 0, ("bflush", 9, []))),
            (1, 2, ("ack", (0, 1)))]
    for dest_rank, src, item in sent:
        t._put(src, dest_rank, item)
    t.post(0, ("feature_opt", dest, (ids[2:6], ids[6:])))
    frames = t.ship()
    assert list(frames) == [1]
    items, runs = pickle.loads(frames[1])
    assert _eq(items, sent)
    assert _eq(runs, [("feature_opt", dest[[0, 2, 3]],
                       (ids[[2, 4, 5]], ids[[6, 8, 9]]))])
    # The row for co-resident rank 2 stays with the sender.
    assert _eq(t.rows, [("feature_opt", dest[[1]], (ids[[3]], ids[[7]]))])
    peer.land([frames[1]])
    landed = [(1, *peer.drain_one(1)), (3, *peer.drain_one(3)),
              (1, *peer.drain_one(1))]
    assert _eq(landed, [sent[0], sent[1], sent[2]])
    assert _eq(peer.rows, runs)


def _mask_reference(rows, worker_of, me):
    """``ship``'s cut written with one boolean mask per destination
    worker: ``(kept, {worker: runs})``."""
    kept, runs = [], {}
    for run in rows:
        owner = worker_of[run[1]]
        mine = owner == me
        if mine.all():
            kept.append(run)
            continue
        if mine.any():
            kept.append(cut(run, mine))
        for w in np.unique(owner[~mine]).tolist():
            runs.setdefault(w, []).append(cut(run, owner == w))
    return kept, runs


@st.composite
def _shipping_worker(draw):
    """A worker's view of a world of 2-4 workers over up to 8 ranks,
    with the runs in flight of one round."""
    workers = draw(st.integers(2, 4))
    ranks = draw(st.integers(workers, 8))
    worker_of = draw(st.permutations(
        list(range(workers)) + draw(st.lists(
            st.integers(0, workers - 1), min_size=ranks - workers,
            max_size=ranks - workers))))
    me = draw(st.integers(0, workers - 1))
    runs = []
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.integers(0, 40))
        dest = np.array(draw(st.lists(st.integers(0, ranks - 1),
                                      min_size=size, max_size=size)),
                        dtype=np.int64)
        ids = np.arange(100, 100 + 2 * size, dtype=np.int64)
        runs.append(("feature_opt", dest, (ids[:size], ids[size:])))
    return worker_of, me, runs


@given(case=_shipping_worker())
@settings(max_examples=200, deadline=None)
def test_ship_cuts_runs_as_one_mask_per_worker_does(case):
    """``ship`` (one stable sort of the destination-worker column, cut
    in contiguous slices) ships byte for byte the frames a per-worker
    boolean-mask cut ships, and keeps the same rows."""
    from repro.config import ClusterConfig
    from repro.runtime.transports.process import WorkerTransport

    worker_of, me, runs = case
    cfg = ClusterConfig(nodes=1, procs_per_node=len(worker_of))
    t = WorkerTransport(cfg, [r for r, w in enumerate(worker_of) if w == me],
                        worker_of, me)
    for run in runs:
        t.post(0, run)
    kept, cuts = _mask_reference(runs, np.asarray(worker_of), me)
    frames = t.ship()
    assert frames == {w: pickle.dumps(([], cuts[w]), pickle.HIGHEST_PROTOCOL)
                      for w in sorted(cuts)}
    assert _eq(t.rows, kept)
