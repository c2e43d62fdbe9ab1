"""Fixture: stable or explained argsorts (clean for REP105)."""
import numpy as np


def order_candidates(dists, ids):
    by_dist = np.argsort(dists, kind="stable")
    by_id = ids.argsort(-1, "mergesort")
    by_key = np.argsort(dists, axis=0, stable=True)
    distinct = np.argsort(ids)  # repro: ignore[REP105] ids are distinct: no ties
    return by_dist, by_id, by_key, distinct, np.sort(dists)
