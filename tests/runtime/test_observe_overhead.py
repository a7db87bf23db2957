"""Overhead-regression test: the disabled recorder must stay ~free.

A fast in-suite version of ``benchmarks/observe_overhead.py`` (which
measures the same contract on bigger instances and writes
``BENCH_observe.json``): the public ``run()`` under the default null
recorder must stay within a fixed wall-time ratio of the engine body
called directly, and results must be bit-identical across
uninstrumented, disabled and fully traced runs.

The ratio bound is deliberately looser than the benchmark's (shared CI
runners; ~0.1 s reps) -- its job is to catch an accidental always-on
allocation or lock on the hot path, which shows up as 2x+, not to
certify the exact margin.  The ratio is the median over reps of one
bare and one disabled run timed back to back, so load from other
processes hits both sides of a pair alike.
"""

import gc
import random
import statistics
import time

from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.multilevel import MultilevelBipartitioner
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use

DISABLED_RATIO_MAX = 1.5
REPS = 5
FM_STARTS = 6  # ~20 ms each on the tiny circuit, so a rep is ~0.1 s


def _paired_ratio(bare, disabled, reps=REPS):
    """Median disabled/bare wall-time ratio, and each side's results.

    Every rep times both sides back to back and swaps which goes first;
    the median drops the few pairs a burst of load splits anyway.
    """
    sides = (bare, disabled)
    ratios = []
    results = [None, None]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(reps):
            seconds = [0.0, 0.0]
            for side in (0, 1) if rep % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                results[side] = sides[side]()
                seconds[side] = time.perf_counter() - t0
            ratios.append(seconds[1] / seconds[0])
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(ratios), results


def _fingerprints(results):
    return [
        (r.solution.cut, tuple(r.solution.parts), tuple(r.passes))
        for r in results
    ]


def test_disabled_fm_overhead_is_bounded(tiny_circuit, tiny_balance):
    graph = tiny_circuit.graph
    engine = FMBipartitioner(
        graph, tiny_balance, config=FMConfig(policy="clip")
    )
    rng = random.Random(3)
    starts = [
        [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        for _ in range(FM_STARTS)
    ]

    ratio, (bare, disabled) = _paired_ratio(
        lambda: [engine._run(parts) for parts in starts],
        lambda: [engine.run(parts) for parts in starts],
    )
    with use(TraceRecorder()):
        traced = [engine.run(parts) for parts in starts]

    assert _fingerprints(bare) == _fingerprints(disabled)
    assert _fingerprints(bare) == _fingerprints(traced)
    assert ratio <= DISABLED_RATIO_MAX, (
        f"disabled recorder costs {ratio:.2f}x "
        f"the uninstrumented engine (bound {DISABLED_RATIO_MAX}x)"
    )


def test_disabled_multilevel_is_bit_identical_and_bounded(
    tiny_circuit, tiny_balance
):
    graph = tiny_circuit.graph
    engine = MultilevelBipartitioner(graph, tiny_balance)
    seeds = [0, 1]

    ratio, (bare, disabled) = _paired_ratio(
        lambda: [engine._run(seed) for seed in seeds],
        lambda: [engine.run(seed) for seed in seeds],
    )
    with use(TraceRecorder()):
        traced = [engine.run(seed) for seed in seeds]

    def fp(results):
        return [
            (r.solution.cut, tuple(r.solution.parts), r.num_levels)
            for r in results
        ]

    assert fp(bare) == fp(disabled) == fp(traced)
    assert ratio <= DISABLED_RATIO_MAX
