"""Partitioning core: FM, CLIP, multilevel, multistart, k-way, baselines."""

from repro.partition.balance import (
    BalanceConstraint,
    MultiBalanceConstraint,
    absolute_balance,
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
from repro.partition.fm_reference import (
    ReferenceFMBipartitioner,
    ReferenceKWayFMRefiner,
)
from repro.partition.gainbucket import GainBucket
from repro.partition.initial import (
    greedy_bfs_bipartition,
    multi_resource_initial,
    random_balanced_bipartition,
    random_side_assignment,
    terminal_seeded_bipartition,
)
from repro.partition.kway import KWayResult, recursive_bisection
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
    apply_fixture,
    block_loads,
    count_fixed,
    cut_nets,
    cut_size,
    free_fixture,
    hamming_distance,
    min_cut_cost_model,
    movable_vertices,
    pins_per_block,
    respect_fixture,
    symmetric_distance,
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
    "KWayResult",
    "MultiBalanceConstraint",
    "MultilevelBipartitioner",
    "MultilevelConfig",
    "MultilevelResult",
    "MultistartResult",
    "PassRecord",
    "ReferenceFMBipartitioner",
    "ReferenceKWayFMRefiner",
    "StartOutcome",
    "absolute_balance",
    "annealing_baseline",
    "apply_fixture",
    "block_loads",
    "coarsen",
    "count_fixed",
    "cut_nets",
    "cut_size",
    "flat_fm_multistart",
    "free_fixture",
    "greedy_baseline",
    "greedy_bfs_bipartition",
    "hamming_distance",
    "heavy_edge_matching",
    "kway_balanced_construction",
    "kway_fm_partition",
    "kway_multistart",
    "min_cut_cost_model",
    "total_cost",
    "movable_vertices",
    "multi_resource_initial",
    "multilevel_multistart",
    "pins_per_block",
    "random_balanced_bipartition",
    "random_baseline",
    "random_matching",
    "random_side_assignment",
    "recursive_bisection",
    "relative_balance",
    "relative_bipartition_balance",
    "fiedler_vector",
    "respect_fixture",
    "run_multistart",
    "spectral_bipartition",
    "spectral_plus_fm",
    "sweep_cut",
    "symmetric_distance",
    "terminal_seeded_bipartition",
    "validate_fixture",
]
