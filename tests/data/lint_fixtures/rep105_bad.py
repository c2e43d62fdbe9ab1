"""Fixture: unstable argsorts in simulation code (REP105 must fire 5x)."""
import numpy as np
from numpy import argsort


def order_candidates(dists, ids):
    by_dist = np.argsort(dists)
    by_id = ids.argsort()
    top = np.argpartition(dists, 3)
    quick = argsort(dists, -1, "quicksort")
    unexplained = np.argsort(ids)  # repro: ignore[REP105]
    return by_dist, by_id, top, quick, unexplained
