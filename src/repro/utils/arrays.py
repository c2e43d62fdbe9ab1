"""Array shape/dtype helpers shared across the library."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import DatasetError


def ensure_2d(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``x`` as a 2-D array; promote a single vector to one row."""
    arr = np.asarray(x)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DatasetError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def as_float32_matrix(x: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate a dense feature matrix and view/convert it as float32.

    Integer inputs (e.g. BigANN's uint8 vectors) are converted; float64 is
    downcast — matching the paper's use of float32 on the wire.
    """
    arr = ensure_2d(x, name)
    if arr.size == 0:
        raise DatasetError(f"{name} is empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise DatasetError(f"{name} must be numeric, got dtype={arr.dtype}")
    if arr.dtype == np.float32:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float32)


def as_finite_matrix(x: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate a dense feature matrix — 2-D, every value finite — and
    return it C-contiguous (the input itself when it already is).  One
    ``np.isfinite`` pass; the error names the first offending row: a NaN
    feature makes every distance to its vertex NaN, which builds into a
    vertex no neighbor list can hold, and an infinite one puts ``inf``
    distances into the graph."""
    arr = np.ascontiguousarray(x)
    if arr.ndim != 2:
        raise DatasetError(
            f"{name} must be a 2-D (n, dim) array, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DatasetError(
            f"{name} row {int(np.argmin(finite))} holds a NaN or infinite "
            f"value; every feature must be finite")
    return arr


def pad_columns(x: np.ndarray, multiple: int) -> np.ndarray:
    """Zero-pad a matrix's columns up to the next multiple of ``multiple``.

    Product quantization needs ``dim % m == 0``; zero padding preserves
    L2 distances exactly, so it is the standard fix for awkward
    dimensions.  Returns the input unchanged when already aligned.
    """
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    arr = ensure_2d(x, "data")
    remainder = arr.shape[1] % multiple
    if remainder == 0:
        return arr
    pad = multiple - remainder
    return np.pad(arr, ((0, 0), (0, pad)), mode="constant")


def chunk_ranges(n: int, chunk: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` covering ``[0, n)`` in blocks of ``chunk``.

    The brute-force baseline and ground-truth computation use blocked
    pairwise distances to bound peak memory (a cache-friendly access
    pattern per the numpy optimization guide).
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    start = 0
    while start < n:
        stop = min(start + chunk, n)
        yield start, stop
        start = stop
