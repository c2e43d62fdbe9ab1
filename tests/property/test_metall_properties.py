"""MetallStore round-trip properties over arbitrary payloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.metall import MetallStore

names = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_-"),
    min_size=1, max_size=20,
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.float32, np.float64, np.int64, np.uint8]),
    shape=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    elements=st.just(0),
).map(lambda a: a)  # zeros are fine; shape/dtype are what matters


@given(objs=st.dictionaries(names, arrays, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_array_store_roundtrip(tmp_path_factory, objs):
    path = tmp_path_factory.mktemp("store") / "ds"
    with MetallStore.create(path) as store:
        for name, arr in objs.items():
            store[name] = arr
    with MetallStore.open_read_only(path) as store:
        assert set(store.keys()) == set(objs)
        for name, arr in objs.items():
            got = np.asarray(store[name])
            assert got.shape == arr.shape
            assert got.dtype == arr.dtype


@given(payload=st.recursive(
    st.one_of(st.integers(-10**9, 10**9), st.floats(allow_nan=False),
              st.text(max_size=20), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
))
@settings(max_examples=40, deadline=None)
def test_pickle_payload_roundtrip(tmp_path_factory, payload):
    """Plain data — what the store once pickled — round-trips as JSON."""
    path = tmp_path_factory.mktemp("store") / "ds"
    with MetallStore.create(path) as store:
        store["obj"] = payload
    assert not list(path.glob("*.pkl"))
    with MetallStore.open_read_only(path) as store:
        assert store["obj"] == payload


@given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
       dtype=st.sampled_from([np.int64, np.int32, np.float32]))
@settings(max_examples=30, deadline=None)
def test_ragged_roundtrip(tmp_path_factory, sizes, dtype):
    records = [np.arange(n, dtype=dtype) + i for i, n in enumerate(sizes)]
    path = tmp_path_factory.mktemp("store") / "ds"
    with MetallStore.create(path) as store:
        store["records"] = records
    with MetallStore.open_read_only(path) as store:
        got = store["records"]
    assert [r.tolist() for r in got] == [r.tolist() for r in records]
    assert all(r.dtype == dtype for r in got)


@given(vals=st.lists(st.integers(0, 100), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_last_write_wins(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("store") / "ds"
    with MetallStore.create(path) as store:
        for v in vals:
            store["x"] = np.full(3, v)
    with MetallStore.open_read_only(path) as store:
        np.testing.assert_array_equal(np.asarray(store["x"]), np.full(3, vals[-1]))
