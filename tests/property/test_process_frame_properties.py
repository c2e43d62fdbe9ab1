"""Pickle round-trip properties for the process backend's wire frames.

The process transport ships the comm layer's one wire format — the
``bflush`` envelope of a flushed buffer, plus the reliability ``rel`` /
``ack`` wrappers — batched into one frame per destination worker per
barrier round: the sender's ``[(dest, src, envelope), ...]``, pickled
once by the sender and relayed unopened by the driver.  The wire format
therefore *is* the sim wire format, serialized: every
envelope shape the comm layer can produce must survive
pickle.dumps/loads bit-exactly.  A ``bflush`` entry is a *column
chunk* — ``(handler, (array per argument))`` with gids as ``int64``
columns, distances and bounds as ``float64`` columns; often the arrays
are slices of a larger run.  The entry for a per-message handler has
one object column of argument tuples."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


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
def _chunk(draw):
    """One column chunk: id columns plus an optional distance column,
    cut out of a longer run like ``emit_run`` does."""
    rows = draw(st.integers(1, 8))
    lo = draw(st.integers(0, 3))
    ids = st.lists(st.integers(0, 2**31 - 1), min_size=rows + lo,
                   max_size=rows + lo)
    columns = [np.array(draw(ids), dtype=np.int64)[lo:] for _ in range(2)]
    if draw(st.booleans()):
        columns.append(np.array(draw(st.lists(
            st.floats(allow_nan=False, width=64) | st.just(np.inf),
            min_size=rows + lo, max_size=rows + lo)), dtype=np.float64)[lo:])
    return (draw(_HANDLER), tuple(columns))


def _calls(rows):
    """The one column of a per-message chunk: argument tuples."""
    column = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        column[i] = row
    return (column,)


def _bflush_env():
    per_message = st.tuples(
        st.just("noop"),
        st.lists(_args(), min_size=1, max_size=4).map(_calls))
    return st.tuples(st.just("bflush"),
                     st.lists(_chunk() | per_message, max_size=6))


def _envelopes():
    """All envelope tags: the flushed buffer, the reliability frame
    around one, and an ack."""
    rel = st.tuples(st.just("rel"), _SEQ, _bflush_env())
    ack = st.tuples(st.just("ack"),
                    st.lists(_SEQ, max_size=8).map(tuple))
    return st.one_of(_bflush_env(), rel, ack)


def _frames():
    """The cross-worker frame of one round: [(dest rank, src rank,
    envelope), ...]."""
    entry = st.tuples(st.integers(0, 63), st.integers(0, 63), _envelopes())
    return st.lists(entry, min_size=1, max_size=4)


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
    """A float column inside an envelope must come back bit-identical
    from a pickled copy — the Type 3 distances a worker ships are the
    ones its peer merges — and a sliced chunk must ship only its rows."""
    rng = np.random.default_rng(3)
    d = rng.normal(size=64)
    ids = np.arange(64, dtype=np.int64)
    env = ("bflush",
           [("distance_reply", (ids[8:40], ids[40:8:-1], d[8:40]))])
    blob = pickle.dumps(env)
    out = pickle.loads(blob)
    assert _eq(out, env)
    assert out[1][0][1][2].tobytes() == d[8:40].tobytes()
    assert len(blob) < 3 * 32 * 8 + 600


def test_frame_a_worker_ships_round_trips():
    """The frame ``WorkerTransport.ship`` pickles unpickles to what
    went in — every entry, in order, arrays bit for bit — and the
    receiver's ``land`` puts each entry in its rank's mailbox."""
    from repro.config import ClusterConfig
    from repro.runtime.transports.process import WorkerTransport

    cfg = ClusterConfig(nodes=1, procs_per_node=4)
    t = WorkerTransport(cfg, [0, 2], [0, 1, 0, 1], 0)
    peer = WorkerTransport(cfg, [1, 3], [0, 1, 0, 1], 1)
    ids = np.arange(10, dtype=np.int64)
    sent = [(1, 0, ("bflush", [("feature_opt", (ids[2:6], ids[6:]))])),
            (3, 2, ("rel", 0, ("bflush", [("noop", _calls([(1, "x")]))]))),
            (1, 2, ("ack", (0, 1)))]
    for dest, src, env in sent:
        t._put(src, dest, env)
    frames = t.ship()
    assert list(frames) == [1]
    assert _eq(pickle.loads(frames[1]), sent)
    peer.land([frames[1]])
    landed = [(1, *peer.drain_one(1)), (3, *peer.drain_one(3)),
              (1, *peer.drain_one(1))]
    assert _eq(landed, [sent[0], sent[1], sent[2]])
