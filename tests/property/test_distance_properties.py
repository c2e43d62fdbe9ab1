"""Metric axioms, property-based.

Section 2 requires theta symmetric with values in [0, inf); the true
metrics additionally satisfy the triangle inequality and identity.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distances import CountingMetric, dense, sparse
from repro.distances.blocked import make_kernels

vec = hnp.arrays(
    np.float64, st.integers(2, 12),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


def paired(n=2):
    """n same-length float vectors."""
    return st.integers(2, 12).flatmap(
        lambda d: st.tuples(*[
            hnp.arrays(np.float64, d,
                       elements=st.floats(-50, 50, allow_nan=False))
            for _ in range(n)
        ])
    )


METRICS = [dense.euclidean, dense.sqeuclidean, dense.manhattan,
           dense.chebyshev, dense.cosine, dense.hamming]
TRUE_METRICS = [dense.euclidean, dense.manhattan, dense.chebyshev]


@given(ab=paired(2))
@settings(max_examples=150, deadline=None)
def test_symmetry(ab):
    a, b = ab
    for m in METRICS:
        assert m(a, b) == m(b, a)


@given(ab=paired(2))
@settings(max_examples=150, deadline=None)
def test_nonnegative(ab):
    a, b = ab
    for m in METRICS:
        assert m(a, b) >= 0.0


@given(a=vec)
@settings(max_examples=100, deadline=None)
def test_self_distance_zero(a):
    for m in (dense.euclidean, dense.sqeuclidean, dense.manhattan,
              dense.chebyshev, dense.hamming):
        assert m(a, a) == 0.0


@given(abc=paired(3))
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(abc):
    a, b, c = abc
    for m in TRUE_METRICS:
        assert m(a, c) <= m(a, b) + m(b, c) + 1e-9


@given(ab=paired(2))
@settings(max_examples=100, deadline=None)
def test_sqeuclidean_is_euclidean_squared(ab):
    a, b = ab
    np.testing.assert_allclose(
        dense.sqeuclidean(a, b), dense.euclidean(a, b) ** 2, rtol=1e-9, atol=1e-12)


@given(ab=paired(2))
@example(ab=(np.array([0.0, -1.0]), np.array([0.0, 2.2254475895031596e-162])))
@settings(max_examples=100, deadline=None)
def test_cosine_bounded(ab):
    """Every cosine form stays in ``[0, 2]`` — also where ``b``'s
    squared norm underflows to a subnormal and ``1 - sim`` would pass 2
    — and the rowwise form is bit-identical to the scalar."""
    a, b = ab
    assert 0.0 <= dense.cosine(a, b) <= 2.0 + 1e-12
    kernels = make_kernels("cosine")
    A, B = a[None, :], b[None, :]
    forms = [np.array([dense.cosine(a, b)]), dense.cosine_rowwise(A, B),
             dense.cosine_rowwise(a, B), dense.cosine_pairwise(A, B),
             kernels.pairwise(A, B), kernels.rowwise(A, B),
             kernels.one_to_many(a, B)]
    for form in forms:
        assert ((0.0 <= form) & (form <= 2.0)).all()
    assert forms[0].tobytes() == forms[1].tobytes()


@given(ab=paired(2))
@settings(max_examples=80, deadline=None)
def test_cosine_scale_invariant(ab):
    a, b = ab
    # Norms below ~1e-154 square into subnormals, where the cosine's
    # dot/norm accumulation has no relative precision left and scale
    # invariance genuinely breaks down in float64.
    if np.linalg.norm(a) < 1e-100 or np.linalg.norm(b) < 1e-100:
        return
    np.testing.assert_allclose(
        dense.cosine(a, b), dense.cosine(3.0 * a, 0.5 * b), atol=1e-9)


sets = st.lists(st.integers(0, 100), min_size=0, max_size=30)


@given(sa=sets, sb=sets)
@settings(max_examples=150, deadline=None)
def test_jaccard_axioms(sa, sb):
    a = sparse.as_sorted_set(sa)
    b = sparse.as_sorted_set(sb)
    d = sparse.jaccard(a, b)
    assert 0.0 <= d <= 1.0
    assert sparse.jaccard(b, a) == d
    assert sparse.jaccard(a, a) == 0.0


@given(sa=sets, sb=sets, sc=sets)
@settings(max_examples=120, deadline=None)
def test_jaccard_triangle(sa, sb, sc):
    # Jaccard distance is a metric: triangle inequality holds.
    a, b, c = (sparse.as_sorted_set(x) for x in (sa, sb, sc))
    assert sparse.jaccard(a, c) <= sparse.jaccard(a, b) + sparse.jaccard(b, c) + 1e-12


@given(sa=sets, sb=sets)
@settings(max_examples=100, deadline=None)
def test_dice_vs_jaccard_relation(sa, sb):
    # dice = 2j/(1+j) similarity relation implies dice distance <= jaccard.
    a = sparse.as_sorted_set(sa)
    b = sparse.as_sorted_set(sb)
    assert sparse.dice(a, b) <= sparse.jaccard(a, b) + 1e-12


#: Every built-in dense metric: each has an exact rowwise form.
DENSE = ["sqeuclidean", "euclidean", "cosine", "inner_product", "manhattan",
         "chebyshev", "hamming", "canberra", "braycurtis", "correlation"]


@st.composite
def one_and_many(draw):
    """``(q, X)``: one vector and 0, 1 or many rows of one dtype, with
    zero rows, zero coordinates and repeated rows drawn often."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int8]))
    d = draw(st.integers(1, 12))
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 9))]))
    if dtype is np.int8:
        elements = st.integers(-128, 127)
    else:
        elements = st.floats(-50, 50, allow_nan=False, width=32)
    rows = hnp.arrays(dtype, (n + 1, d), elements=st.one_of(
        st.just(dtype(0)), elements))
    M = draw(rows)
    return M[0], M[1:]


@given(qX=one_and_many())
@settings(max_examples=150, deadline=None)
def test_one_to_many_consistency(qX):
    """Under the rowwise kernel ``distances_to(q, X)`` is the scalar
    metric, byte for byte, and counts one evaluation per row."""
    q, X = qX
    for name in DENSE:
        cm = CountingMetric(name, kernel="rowwise")
        got = cm.distances_to(q, X)
        want = np.array([cm.inner.scalar(q, x) for x in X], dtype=np.float64)
        assert got.tobytes() == want.tobytes(), name
        assert cm.count == len(X)
