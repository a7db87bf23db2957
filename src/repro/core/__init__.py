"""The paper's contribution: fixed-terminals partitioning studies."""

from repro.core.constraint import ConstraintProfile, constraint_profile
from repro.core.cutoff import (
    PAPER_CUTOFFS,
    CutoffCell,
    CutoffStudy,
    run_cutoff_study,
)
from repro.core.difficulty import (
    DifficultyPoint,
    DifficultyStudy,
    format_study,
    run_difficulty_study,
)
from repro.core.instance import (
    PartitioningInstance,
    bipartition_instance,
)
from repro.core.pass_stats import (
    PassStatsRow,
    PassStatsStudy,
    run_pass_stats_study,
)
from repro.core.regimes import (
    PAPER_PERCENTS,
    REGIMES,
    FixedVertexSchedule,
    find_good_solution,
    good_fixture,
    make_schedule,
    pad_schedule,
    rand_fixture,
    regime_fixture,
)
from repro.core.rent import (
    DEFAULT_PINS_PER_CELL,
    DEFAULT_RENT_PARAMETERS,
    DEFAULT_THRESHOLDS,
    TableOneRow,
    block_size_threshold,
    expected_terminals,
    fixed_fraction,
    format_table_one,
    table_one,
)
from repro.core.terminal_clustering import (
    ClusteredInstance,
    cluster_terminals,
)

__all__ = [
    "DEFAULT_PINS_PER_CELL",
    "DEFAULT_RENT_PARAMETERS",
    "DEFAULT_THRESHOLDS",
    "PAPER_CUTOFFS",
    "PAPER_PERCENTS",
    "REGIMES",
    "ClusteredInstance",
    "ConstraintProfile",
    "CutoffCell",
    "CutoffStudy",
    "DifficultyPoint",
    "DifficultyStudy",
    "FixedVertexSchedule",
    "PartitioningInstance",
    "PassStatsRow",
    "PassStatsStudy",
    "TableOneRow",
    "bipartition_instance",
    "block_size_threshold",
    "cluster_terminals",
    "constraint_profile",
    "expected_terminals",
    "find_good_solution",
    "fixed_fraction",
    "format_study",
    "format_table_one",
    "good_fixture",
    "make_schedule",
    "pad_schedule",
    "rand_fixture",
    "regime_fixture",
    "run_cutoff_study",
    "run_difficulty_study",
    "run_pass_stats_study",
    "table_one",
]
