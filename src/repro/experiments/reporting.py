"""Shared result reporting for the experiment harness.

Every experiment can print its table/figure data to stdout and
optionally persist it under ``results/`` so EXPERIMENTS.md entries can
be regenerated verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

DEFAULT_RESULTS_DIR = Path("results")


def emit(
    text: str,
    name: Optional[str] = None,
    results_dir: Optional[PathLike] = None,
    quiet: bool = False,
) -> str:
    """Print ``text`` and optionally save it as ``results/<name>.txt``."""
    if not quiet:
        print(text)
    if name is not None:
        directory = Path(results_dir or DEFAULT_RESULTS_DIR)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.txt").write_text(text + "\n")
    return text


def ratio(value: float, reference: float) -> float:
    """Safe ratio for normalized reporting."""
    return value / reference if reference else float("inf")


def check(label: str, condition: bool) -> str:
    """One line of a shape-check report."""
    return f"[{'PASS' if condition else 'FAIL'}] {label}"
