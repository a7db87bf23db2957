"""Partitioning core: FM, CLIP, multilevel, multistart, k-way, baselines."""

from repro.partition.balance import (
    BalanceConstraint,
    MultiBalanceConstraint,
    relative_balance,
    relative_bipartition_balance,
)
from repro.partition.baselines import (
    annealing_baseline,
    greedy_baseline,
    random_baseline,
)
from repro.partition.fm import (
    FMBipartitioner,
    FMConfig,
    FMResult,
    PassRecord,
)
from repro.partition.fm_reference import ReferenceFMBipartitioner
from repro.partition.gainbucket import GainBucket
from repro.partition.initial import (
    greedy_bfs_bipartition,
    multi_resource_initial,
    random_balanced_bipartition,
    terminal_seeded_bipartition,
)
from repro.partition.kwayfm import (
    KWayFMConfig,
    KWayFMRefiner,
    KWayFMResult,
    kway_balanced_construction,
    kway_fm_partition,
)
from repro.partition.matching import (
    CoarseLevel,
    coarsen,
    heavy_edge_matching,
    random_matching,
)
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
    MultilevelResult,
)
from repro.partition.multistart import (
    FlatFMStartTask,
    KWayStartTask,
    MultilevelStartTask,
    MultistartResult,
    StartOutcome,
    flat_fm_multistart,
    kway_multistart,
    multilevel_multistart,
    run_multistart,
)
from repro.partition.solution import (
    FREE,
    Bipartition,
    NetCostModel,
    block_loads,
    cut_size,
    min_cut_cost_model,
    respect_fixture,
    total_cost,
    validate_fixture,
)

# The spectral baseline needs numpy/scipy, which are an optional extra
# (``pip install repro[spectral]``); import it lazily so the core
# package stays dependency-free.
_SPECTRAL_EXPORTS = (
    "fiedler_vector",
    "spectral_bipartition",
    "spectral_plus_fm",
    "sweep_cut",
)


def __getattr__(name):
    if name in _SPECTRAL_EXPORTS:
        from repro.partition import spectral

        return getattr(spectral, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "FREE",
    "BalanceConstraint",
    "FlatFMStartTask",
    "KWayStartTask",
    "MultilevelStartTask",
    "Bipartition",
    "CoarseLevel",
    "NetCostModel",
    "FMBipartitioner",
    "FMConfig",
    "FMResult",
    "GainBucket",
    "KWayFMConfig",
    "KWayFMRefiner",
    "KWayFMResult",
    "MultiBalanceConstraint",
    "MultilevelBipartitioner",
    "MultilevelConfig",
    "MultilevelResult",
    "MultistartResult",
    "PassRecord",
    "ReferenceFMBipartitioner",
    "StartOutcome",
    "annealing_baseline",
    "block_loads",
    "coarsen",
    "cut_size",
    "flat_fm_multistart",
    "greedy_baseline",
    "greedy_bfs_bipartition",
    "heavy_edge_matching",
    "kway_balanced_construction",
    "kway_fm_partition",
    "kway_multistart",
    "min_cut_cost_model",
    "total_cost",
    "multi_resource_initial",
    "multilevel_multistart",
    "random_balanced_bipartition",
    "random_baseline",
    "random_matching",
    "relative_balance",
    "relative_bipartition_balance",
    "fiedler_vector",
    "respect_fixture",
    "run_multistart",
    "spectral_bipartition",
    "spectral_plus_fm",
    "sweep_cut",
    "terminal_seeded_bipartition",
    "validate_fixture",
]
