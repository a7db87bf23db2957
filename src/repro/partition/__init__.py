"""Partitioning core: FM, CLIP, multilevel, multistart, k-way."""

from repro.partition.balance import (
    BalanceConstraint,
    MultiBalanceConstraint,
    relative_balance,
    relative_bipartition_balance,
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
    "block_loads",
    "coarsen",
    "cut_size",
    "flat_fm_multistart",
    "heavy_edge_matching",
    "kway_balanced_construction",
    "kway_fm_partition",
    "kway_multistart",
    "min_cut_cost_model",
    "total_cost",
    "multi_resource_initial",
    "multilevel_multistart",
    "random_balanced_bipartition",
    "random_matching",
    "relative_balance",
    "relative_bipartition_balance",
    "respect_fixture",
    "run_multistart",
    "terminal_seeded_bipartition",
    "validate_fixture",
]
