"""Property tests for the per-vertex norm table (DESIGN.md §17).

A build computes each vertex's norm once (``CountingMetric.norm_table``
over the whole dataset) and every paired distance reads its rows'
entries through ``rowwise(..., norms=)``.  That is only allowed because
the table is made by the kernel's own per-row reduction: reading an
entry must give the bits recomputing it from gathered rows gives.  The
property is checked for every dense metric under both kernels and every
input dtype the datasets use, with zero vectors, empty chunks and a
broadcast 1-D side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import CountingMetric
from repro.distances.registry import get_metric, list_metrics

DENSE = tuple(m for m in list_metrics() if not get_metric(m).sparse_input)
KERNELS = ("rowwise", "blocked")
DTYPES = (np.float32, np.float64, np.uint8)


@st.composite
def datasets(draw):
    """A small dataset of one dtype, some rows zero, and paired row ids
    (possibly none) into it."""
    n = draw(st.integers(2, 40))
    dim = draw(st.sampled_from([1, 3, 8, 25, 64, 100]))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if dtype is np.uint8:
        X = rng.integers(0, 256, size=(n, dim)).astype(np.uint8)
    else:
        X = (rng.standard_normal((n, dim))
             * 10.0 ** draw(st.integers(-3, 3))).astype(dtype)
    X[rng.random(n) < 0.2] = 0
    pairs = draw(st.integers(0, 30))
    a, b = rng.integers(0, n, size=(2, pairs))
    return X, a, b


def _both_ways(m, X, a, b, norms):
    """``(kernel over gathered rows, same call reading the table)``."""
    ref = m.rowwise(X[a], X[b])
    got = m.rowwise(X[a], X[b],
                    norms=None if norms is None else (norms[a], norms[b]))
    return ref, got


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("metric", DENSE)
@given(case=datasets())
@settings(max_examples=25, deadline=None)
def test_table_path_equals_the_per_chunk_kernel(metric, kernel, case):
    X, a, b = case
    m = CountingMetric(metric, kernel=kernel)
    norms = m.norm_table(X)
    if norms is not None:
        assert norms.shape == (len(X),)
    ref, got = _both_ways(m, X, a, b, norms)
    assert got.dtype == ref.dtype == np.float64
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("metric", DENSE)
@given(case=datasets(), side=st.sampled_from("ab"))
@settings(max_examples=15, deadline=None)
def test_table_path_with_a_broadcast_side(metric, kernel, case, side):
    """A 1-D side, broadcast against the other's rows, reads its one
    table entry."""
    X, a, b = case
    m = CountingMetric(metric, kernel=kernel)
    norms = m.norm_table(X)
    i = int(a[0]) if len(a) else 0
    if side == "a":
        args, table = (X[i], X[b]), (None if norms is None
                                     else (norms[i], norms[b]))
    else:
        args, table = (X[b], X[i]), (None if norms is None
                                     else (norms[b], norms[i]))
    ref = m.rowwise(*args)
    got = m.rowwise(*args, norms=table)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_cosine_zero_vectors_read_from_the_table(kernel, dtype):
    """A zero row's table entry is 0 and its cosine distance to anything
    (another zero row included) is 1, as the kernel's own norms give."""
    X = np.array([[0, 0, 0], [1, 2, 3], [0, 0, 0], [3, 0, 1]], dtype=dtype)
    m = CountingMetric("cosine", kernel=kernel)
    norms = m.norm_table(X)
    assert norms[0] == norms[2] == 0
    a, b = np.array([0, 0, 1, 2]), np.array([1, 2, 3, 0])
    ref, got = _both_ways(m, X, a, b, norms)
    assert got.tobytes() == ref.tobytes()
    assert got[[0, 1, 3]].tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("metric", DENSE)
def test_empty_chunk_reads_no_entry(metric, kernel):
    X = np.arange(12, dtype=np.float32).reshape(4, 3)
    m = CountingMetric(metric, kernel=kernel)
    none = np.empty(0, dtype=np.int64)
    ref, got = _both_ways(m, X, none, none, m.norm_table(X))
    assert got.shape == ref.shape == (0,)
    assert m.count == 0


def test_only_norm_reading_forms_have_a_table():
    """A table is made where the kernel reads norms — cosine (both
    kernels), and the squared-norm expansions of the blocked kernel —
    and nowhere else: sparse metrics and the exact difference forms
    have none."""
    X = np.ones((3, 4))
    with_table = {(m, k) for m in DENSE for k in KERNELS
                  if CountingMetric(m, kernel=k).norm_table(X) is not None}
    assert with_table == {("cosine", "rowwise"), ("cosine", "blocked"),
                          ("euclidean", "blocked"),
                          ("sqeuclidean", "blocked")}
    assert CountingMetric("jaccard").norm_table([[1, 2], [3]]) is None
