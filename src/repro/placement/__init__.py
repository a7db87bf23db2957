"""Placement substrate: geometry, top-down placer, benchmark derivation."""

from repro.placement.derive import (
    InstanceParameters,
    derive_instance,
    instance_parameters,
)
from repro.placement.geometry import (
    AXES,
    HORIZONTAL,
    VERTICAL,
    Cutline,
    Rect,
    midline,
)
from repro.placement.naming import block_name, block_region
from repro.placement.objective import (
    terminal_positions_from_placement,
    wirelength_cost_model,
)
from repro.placement.placer import (
    Placement,
    PlacerConfig,
    TopDownPlacer,
    perimeter_pad_positions,
)
from repro.placement.suite import (
    SERIES_PATHS,
    BenchmarkSuite,
    SuiteEntry,
    build_suite,
    format_table,
    place_circuit,
)

__all__ = [
    "AXES",
    "HORIZONTAL",
    "SERIES_PATHS",
    "VERTICAL",
    "BenchmarkSuite",
    "Cutline",
    "InstanceParameters",
    "Placement",
    "PlacerConfig",
    "Rect",
    "SuiteEntry",
    "TopDownPlacer",
    "block_name",
    "block_region",
    "build_suite",
    "derive_instance",
    "format_table",
    "instance_parameters",
    "midline",
    "perimeter_pad_positions",
    "place_circuit",
    "terminal_positions_from_placement",
    "wirelength_cost_model",
]
