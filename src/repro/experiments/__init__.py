"""Experiment harness: one module per table/figure of the paper.

Run them through ``python -m repro experiment <name>``.  The driver
submodules (``table1`` .. ``table4``, ``figures``, ...) are not imported
here, so importing the package stays light; import the one you need,
e.g. ``from repro.experiments.table2 import run_table2``.
"""

from repro.experiments.circuits import (
    CIRCUITS,
    PAPER_TOLERANCE,
    CircuitDefinition,
    load_circuit,
    load_instance,
)

__all__ = [
    "CIRCUITS",
    "PAPER_TOLERANCE",
    "CircuitDefinition",
    "load_circuit",
    "load_instance",
]
