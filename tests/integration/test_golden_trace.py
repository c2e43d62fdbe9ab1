"""Golden-trace regression: the canonical build's metrics are pinned.

A fixed dataset + configuration on the sim backend must reproduce the
checked-in ``tests/data/golden_metrics.json`` **bit for bit** — not the
wall-clock quantities (those differ every run), but the deterministic
projection: counters, the span name sequence, per-timer counts, and the
cost model's ``sim.*`` gauges.  Any change to message accounting, phase
structure, or the cost model shows up here as a diff.

Last edited when the blocked kernels lost their array-module seam: the
``kernel.fallbacks`` counter (requested-but-missing array libraries,
always 0) is no longer published, so its line was removed by hand.
Nothing else in the file moved.

Regenerated — once — when registry counters became a view of the
barrier log read at snapshot time instead of a mirror published at
barriers.  Only ``transport.collectives`` moved, 5 -> 7: the mirror
missed the collectives that run after the last barrier (the last
iteration's termination allreduce and the gather); the build itself did
not change.

Before that it was regenerated for the stateless ``Sample``: every random
choice of the rank program became ``draw_key``, a hash of ``(seed,
purpose, iteration, vertex, element)``, and ``Sample(S, n)`` "the ``n``
members with the smallest keys" (``dnnd_phases.sample_smallest``), in
place of one ``numpy`` generator per vertex per phase.  The *draws*
changed (other initial neighbors, other sampled candidates, another
shuffle order) and new-new pairs are now emitted as ``u1 < u2``
(Algorithm 1 line 18), which lets ``check_dedup`` catch a pair proposed
from both sides; the schedule, the tie rule and the charging did not.
What moved in this file: the canonical build converges in 6 iterations
instead of 5 (n=200 sits on the ``delta`` edge), so ``reverse``
messages read 4304 -> 5232 and two more barriers are taken; per
iteration the counts are within 2%, Type 2+ 10206 -> 9587 and
``distance.evals`` 13681 -> 13068 despite the extra round.

Before that it was regenerated for the columnar rank program, which
changed three rules at once (and nothing else about the build):

* **schedule** — the sim driver runs ``init`` as one section and ships
  the neighbor check in chunks with a barrier between chunks (the
  schedule process workers always ran), not the per-vertex cross-rank
  interleave; a handler sees a run's redundancy/bound state once,
  before the run's own updates.  Message and evaluation counts moved by
  0-2.3%.  (The later stage-and-pump rule — every emitting phase staged,
  then pumped by the driver — left this file byte-identical: at n=200,
  ``batch_size=4096`` only the neighbor check spans more than one
  chunk, as before.)
* **tie rule** — rows order entries by ``(distance, id)``, so a tie with
  the worst entry is won by the smaller id instead of lost by the later
  arrival.
* **``count x cost`` charging** — modeled compute is charged once per
  run as ``count * cost`` (the sim gauges lost the rounding noise of
  thousands of repeated adds), and ``heap.updates.accepted`` counts the
  candidates still in their row when the run that offered them ends
  (4015 -> 2825), no longer every transient acceptance.

Regenerate after an *intentional* change::

    PYTHONPATH=src python -c "
    from tests.integration.test_golden_trace import write_golden
    write_golden()"
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.datasets.synthetic import gaussian_mixture
from repro.runtime.metrics import deterministic_projection

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "data" / "golden_metrics.json")


def canonical_build():
    """The pinned build: every parameter fixed, sim backend and rowwise
    kernel only (both pinned so CI matrix env vars cannot leak in)."""
    data = gaussian_mixture(200, 10, n_clusters=5, cluster_std=0.15, seed=42)
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=6, rho=0.8, delta=0.001, max_iters=8, seed=1),
        batch_size=1 << 12,
        backend="sim",
        kernel="rowwise",
    )
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
    return dnnd.build()


def write_golden() -> None:
    """Regenerate the golden file (run manually, then review the diff)."""
    snap = canonical_build().metrics.snapshot()
    GOLDEN_PATH.write_text(
        json.dumps(deterministic_projection(snap), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def canonical_result():
    return canonical_build()


class TestGoldenTrace:
    def test_projection_matches_golden_bit_for_bit(self, canonical_result):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        got = deterministic_projection(canonical_result.metrics.snapshot())
        # Compare through a JSON round trip so both sides have identical
        # type normalization (tuples/ints) — byte-equality of the dumps.
        got = json.loads(json.dumps(got, sort_keys=True))
        assert got == golden

    def test_rebuild_reproduces_itself(self):
        a = deterministic_projection(canonical_build().metrics.snapshot())
        b = deterministic_projection(canonical_build().metrics.snapshot())
        assert a == b

    def test_trace_round_trips_json(self, canonical_result):
        trace = canonical_result.metrics.to_chrome_trace()
        text = json.dumps(trace)
        assert json.loads(text) == trace
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" for e in events)

    def test_phase_spans_monotone_and_non_overlapping(self, canonical_result):
        """The phase driver closes each span before opening the next, so
        the ``cat == "phase"`` timeline is strictly sequential."""
        spans = [s for s in canonical_result.metrics.spans
                 if s.cat == "phase"]
        assert len(spans) >= 4  # init + iterations + gather at minimum
        previous_end = -1.0
        for s in spans:
            assert s.end >= s.start >= 0.0
            assert s.start >= previous_end, (
                f"span {s.name} starts at {s.start} before previous "
                f"span ended at {previous_end}")
            previous_end = s.end

    def test_phase_sequence_starts_with_init(self, canonical_result):
        names = [s.name for s in canonical_result.metrics.spans
                 if s.cat == "phase"]
        assert names[0] == "phase.init"
        assert names[-1] == "phase.gather"
        assert "phase.neighbor_check" in names
