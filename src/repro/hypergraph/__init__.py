"""Hypergraph substrate: data structure, builders, statistics, generators."""

from repro.hypergraph.builder import HypergraphBuilder
from repro.hypergraph.contraction import Contraction, contract
from repro.hypergraph.generators import (
    CircuitSpec,
    SyntheticCircuit,
    chain_hypergraph,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
    random_k_uniform,
)
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.hypergraph.stats import (
    HypergraphStats,
    compute_stats,
    pins_per_cell,
)
from repro.hypergraph.validate import ValidationReport, validate_hypergraph

__all__ = [
    "CircuitSpec",
    "Contraction",
    "Hypergraph",
    "HypergraphBuilder",
    "HypergraphError",
    "HypergraphStats",
    "SyntheticCircuit",
    "ValidationReport",
    "chain_hypergraph",
    "clustered_hypergraph",
    "compute_stats",
    "contract",
    "generate_circuit",
    "grid_hypergraph",
    "pins_per_cell",
    "random_k_uniform",
    "validate_hypergraph",
]
