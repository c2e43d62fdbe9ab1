"""Configuration dataclasses for NN-Descent, DNND, and the simulated cluster.

The defaults follow Section 5.1.3 of the paper: early-termination
``delta = 0.001``, sample rate ``rho = 0.8``, neighborhood-limit factor
``m = 1.5``, and an application-level communication batch threshold
(the paper uses 2^25–2^30 *global* requests at billion scale; our default
is scaled down proportionally to laptop-scale datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


#: Execution backends (``DNNDConfig.backend`` / ``REPRO_BACKEND`` /
#: ``--backend``).
BACKENDS = ("sim", "process")


def check_backend(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``name`` is an
    execution backend.  ``"parallel"`` — the thread backend, retired
    because the GIL kept it slower than both sim and process
    (EXPERIMENTS.md) — is named as removed, never mapped to a
    survivor."""
    if name == "parallel":
        raise ConfigError(
            "execution backend 'parallel' (the thread pool) was removed; "
            "use 'process' for multi-core builds or 'sim' for the "
            "deterministic cost-modeled run")
    _require(name in BACKENDS,
             f"unknown execution backend {name!r}; expected one of "
             f"{'/'.join(BACKENDS)}")


@dataclass(frozen=True)
class NNDescentConfig:
    """Parameters of Algorithm 1 (shared-memory and distributed).

    Attributes
    ----------
    k:
        Number of neighbors per vertex in the output graph.
    rho:
        Sample rate: each iteration samples ``rho * k`` *new* entries per
        vertex (and the same number from each reversed matrix).
    delta:
        Early-termination threshold: stop when fewer than
        ``delta * k * N`` graph updates happened in an iteration.
    max_iters:
        Safety bound on the number of NN-Descent iterations.
    metric:
        Name of a metric registered in :mod:`repro.distances.registry`.
    seed:
        Seed for the random initialization and all sampling.
    """

    k: int = 10
    rho: float = 0.8
    delta: float = 0.001
    max_iters: int = 30
    metric: str = "sqeuclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.k >= 1, f"k must be >= 1, got {self.k}")
        _require(0.0 < self.rho <= 1.0, f"rho must be in (0, 1], got {self.rho}")
        _require(self.delta >= 0.0, f"delta must be >= 0, got {self.delta}")
        _require(self.max_iters >= 1, f"max_iters must be >= 1, got {self.max_iters}")

    @property
    def sample_size(self) -> int:
        """``rho * k`` rounded up to at least 1 (the per-vertex sample)."""
        return max(1, int(round(self.rho * self.k)))

    def with_(self, **kw) -> "NNDescentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class CommOptConfig:
    """Which of the Section 4.3 communication-saving techniques are active.

    The *unoptimized* pattern (Figure 1a) corresponds to all three flags
    off; the paper's *optimized* pattern (Figure 1b) to all three on.
    """

    one_sided: bool = True
    """4.3.1 — route the check v -> u1 -> u2 instead of v -> {u1, u2}."""

    redundancy_check: bool = True
    """4.3.2 — skip Type 2/3 messages when the pair is already adjacent."""

    distance_pruning: bool = True
    """4.3.3 — attach u1's worst-neighbor distance to Type 2+ and suppress
    the Type 3 reply when the computed distance cannot improve u1."""

    check_dedup: bool = True
    """4.3.2 applied to *compute*: remember which ``(u1, u2)`` pairs were
    already checked at this rank during the current iteration and skip
    repeats — the same pair is commonly proposed by many center vertices
    in one iteration.  Independent of ``one_sided`` (it also dedups the
    unoptimized pattern's feature shipments)."""

    @classmethod
    def unoptimized(cls) -> "CommOptConfig":
        return cls(one_sided=False, redundancy_check=False,
                   distance_pruning=False, check_dedup=False)

    @classmethod
    def optimized(cls) -> "CommOptConfig":
        return cls()

    def __post_init__(self) -> None:
        # 4.3.2/4.3.3 are defined on top of the one-sided message chain:
        # without one-sided routing there is no Type 2+/Type 3 to suppress.
        if (self.redundancy_check or self.distance_pruning) and not self.one_sided:
            raise ConfigError(
                "redundancy_check / distance_pruning require one_sided=True "
                "(they refine the Type 2+/Type 3 chain of Section 4.3.1)"
            )


@dataclass(frozen=True)
class DNNDConfig:
    """Full configuration of a distributed NN-Descent run.

    Combines the Algorithm 1 parameters with the distributed-specific
    knobs of Sections 4.3-4.5.
    """

    nnd: NNDescentConfig = field(default_factory=NNDescentConfig)
    comm_opts: CommOptConfig = field(default_factory=CommOptConfig)

    batch_size: int = 1 << 14
    """Section 4.4 — global async-request count between application-level
    barriers. The paper uses 2^25-2^30 at billion scale; default scaled to
    laptop-size datasets. ``0`` disables application-level batching."""

    pruning_factor: float = 1.5
    """``m`` of Section 4.5 — after the reverse-edge merge, a vertex keeps
    at most ``k * m`` closest neighbors."""

    shuffle_reverse_destinations: bool = True
    """Section 4.2 — shuffle destination order when shipping the reversed
    old/new matrices to avoid synchronized bursts at one rank."""

    backend: str | None = None
    """Execution backend: ``"sim"`` (deterministic inline simulation
    with the cost model — the default) or ``"process"`` (worker
    processes over the driver's dataset view; fault plans, reliable
    delivery and the sanitizer run there too, only the cost model is
    sim-only).
    ``None`` defers to the ``REPRO_BACKEND`` environment variable,
    falling back to ``"sim"``."""

    kernel: str | None = None
    """Batched distance-kernel implementation: ``"rowwise"`` (bit-exact
    per-row kernels, the default and the golden-trace oracle) or
    ``"blocked"`` (tiled-GEMM kernels of ``repro.distances.blocked``;
    recall-parity-gated rather than bit-identical for metrics whose
    blocked form reassociates reductions — see DESIGN.md section 17).
    ``None`` defers to the ``REPRO_KERNEL`` environment variable,
    falling back to ``"rowwise"``."""

    workers: int = 0
    """Worker-process count of the process backend; ``0`` means auto
    (``REPRO_WORKERS`` if set, else the machine's core count), always
    capped at the cluster's world size.
    Ignored by the sim backend."""

    def __post_init__(self) -> None:
        _require(self.batch_size >= 0, "batch_size must be >= 0")
        _require(self.pruning_factor >= 1.0, "pruning_factor (m) must be >= 1.0")
        if self.backend is not None:
            check_backend(self.backend)
        _require(self.kernel in (None, "rowwise", "blocked"),
                 f"kernel must be None, 'rowwise', or 'blocked', "
                 f"got {self.kernel!r}")
        _require(self.workers >= 0, "workers must be >= 0 (0 = auto)")

    @property
    def k(self) -> int:
        return self.nnd.k

    def with_(self, **kw) -> "DNNDConfig":
        """Copy with replacements; nested ``nnd.<field>`` keys supported."""
        nnd_kw = {}
        top_kw = {}
        nnd_fields = {f.name for f in fields(NNDescentConfig)}
        for key, val in kw.items():
            if key.startswith("nnd."):
                nnd_kw[key[4:]] = val
            elif key in nnd_fields:
                nnd_kw[key] = val
            else:
                top_kw[key] = val
        if nnd_kw:
            top_kw["nnd"] = self.nnd.with_(**nnd_kw)
        return replace(self, **top_kw)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster (Section 5.1.2 analogue).

    The paper's Mammoth nodes run 128 MPI processes each; we keep the
    node/process distinction so the network model can charge intra-node
    and inter-node traffic differently.
    """

    nodes: int = 4
    procs_per_node: int = 4

    def __post_init__(self) -> None:
        _require(self.nodes >= 1, "nodes must be >= 1")
        _require(self.procs_per_node >= 1, "procs_per_node must be >= 1")

    @property
    def world_size(self) -> int:
        return self.nodes * self.procs_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` (block placement, as with MPI
        default mapping)."""
        if not 0 <= rank < self.world_size:
            raise ConfigError(f"rank {rank} out of range for {self}")
        return rank // self.procs_per_node
