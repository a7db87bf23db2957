"""Deterministic per-task seed streams.

Every multistart/multirun driver in the repo draws its per-task seeds
as 32-bit integers from one ``random.Random(seed)`` stream, in task
order.  The functions here centralise that draw so the parallel
runtime can materialise the whole stream *up front*, hand task ``i``
seed ``i`` regardless of which worker executes it, and thereby return
results bit-identical to the serial path.
"""

from __future__ import annotations

import random
from typing import List

SEED_BITS = 32
"""Width of every derived seed (matches the historical serial draws)."""


def derive_start_seeds(seed: int, count: int) -> List[int]:
    """The first ``count`` task seeds of the stream keyed by ``seed``.

    Equivalent to ``count`` successive ``getrandbits(32)`` calls on
    ``random.Random(seed)`` -- exactly what the serial drivers always
    did, which is the backbone of the ``jobs=N == jobs=1`` determinism
    contract.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    return [rng.getrandbits(SEED_BITS) for _ in range(count)]
