"""Initial solution generation for iterative partitioners.

FM is a refinement engine; it starts from some assignment.  The paper's
protocol starts every FM run from a random (balanced) partitioning, so
the quality of the randomized construction matters for reproducing the
multistart behaviour.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint, MultiBalanceConstraint
from repro.partition.solution import FREE, validate_fixture


def random_balanced_bipartition(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Randomized balanced construction.

    Fixed vertices go to their mandated side; the free vertices are
    visited in random order, largest area first within a shuffled
    grouping, and each goes to the side with the most remaining capacity
    (ties broken randomly).  The result is usually feasible under the
    paper's 2% tolerance; when large fixed areas make exact feasibility
    impossible the construction still minimises the overshoot and FM's
    repair moves take it from there.
    """
    if balance.num_parts != 2:
        raise ValueError("bipartition constructor is strictly 2-way")
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, 2)
    rng = rng or random.Random()

    parts = [0] * n
    loads = [0.0, 0.0]
    free: List[int] = []
    for v in range(n):
        f = fixture[v]
        if f == FREE:
            free.append(v)
        else:
            parts[v] = f
            loads[f] += graph.area(v)

    # Shuffle first so equal-area vertices land in random order, then a
    # stable sort brings the hardest-to-place (largest) vertices forward.
    rng.shuffle(free)
    free.sort(key=graph.area, reverse=True)
    targets = [
        (lo + hi) / 2.0
        for lo, hi in zip(balance.min_loads, balance.max_loads)
    ]
    for v in free:
        remaining0 = targets[0] - loads[0]
        remaining1 = targets[1] - loads[1]
        if remaining0 > remaining1:
            side = 0
        elif remaining1 > remaining0:
            side = 1
        else:
            side = rng.randrange(2)
        parts[v] = side
        loads[side] += graph.area(v)
    return parts


def multi_resource_initial(
    graph: Hypergraph,
    balance: MultiBalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> List[int]:
    """Greedy vector bin-filling construction for multi-balanced FM.

    Visits free vertices largest-first (by total normalised weight) and
    assigns each to the side with the larger remaining vector capacity,
    measured as the sum of per-resource shortfalls.
    """
    if balance.num_parts != 2:
        raise ValueError("bipartition constructor is strictly 2-way")
    resources = balance.num_resources
    if resources > graph.num_resources:
        raise ValueError(
            f"balance names {resources} resources but the graph "
            f"carries {graph.num_resources}"
        )
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, 2)
    rng = random.Random(seed)

    totals = [
        sum(graph.resource_vector(r)) or 1.0 for r in range(resources)
    ]
    weights = [
        [graph.resource(v, r) / totals[r] for r in range(resources)]
        for v in range(n)
    ]
    parts = [0] * n
    loads = [[0.0, 0.0] for _ in range(resources)]
    free = []
    for v in range(n):
        f = fixture[v]
        if f == FREE:
            free.append(v)
        else:
            parts[v] = f
            for r in range(resources):
                loads[r][f] += weights[v][r]
    rng.shuffle(free)
    free.sort(key=lambda v: sum(weights[v]), reverse=True)

    centers = [
        [
            (c.min_loads[side] + c.max_loads[side]) / 2.0 / total
            for side in (0, 1)
        ]
        for c, total in zip(balance.constraints, totals)
    ]
    for v in free:
        shortfall = [
            sum(
                centers[r][side] - loads[r][side]
                for r in range(resources)
            )
            for side in (0, 1)
        ]
        if shortfall[0] > shortfall[1]:
            side = 0
        elif shortfall[1] > shortfall[0]:
            side = 1
        else:
            side = rng.randrange(2)
        parts[v] = side
        for r in range(resources):
            loads[r][side] += weights[v][r]
    return parts


def random_side_assignment(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    num_parts: int = 2,
) -> List[int]:
    """Uniformly random assignment (no balance awareness).

    Useful as a worst-case starting point in tests and as the "random
    partitioning" baseline.
    """
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, num_parts)
    rng = rng or random.Random()
    return [
        f if f != FREE else rng.randrange(num_parts)
        for f in fixture
    ]


def terminal_seeded_bipartition(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Sequence[int],
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Terminal-propagation construction for the fixed-terminals regime.

    Every free vertex takes the side of its nearest fixed vertex
    (simultaneous multi-source BFS over hypergraph adjacency, ties and
    unreachable vertices resolved randomly), then a greedy repair pass
    moves the smallest-degree border vertices off the overfull side
    until the balance window is met.  This exploits exactly the signal
    the paper says partitioners should exploit: with many terminals the
    good solution is largely dictated by who is close to which side.

    Falls back to :func:`random_balanced_bipartition` when nothing is
    fixed.
    """
    if balance.num_parts != 2:
        raise ValueError("bipartition constructor is strictly 2-way")
    n = graph.num_vertices
    validate_fixture(fixture, n, 2)
    rng = rng or random.Random()
    seeds = [v for v in range(n) if fixture[v] != FREE]
    if not seeds:
        return random_balanced_bipartition(
            graph, balance, fixture=fixture, rng=rng
        )

    parts = [-1] * n
    frontier: List[int] = []
    for v in seeds:
        parts[v] = fixture[v]
        frontier.append(v)
    rng.shuffle(frontier)
    head = 0
    while head < len(frontier):
        v = frontier[head]
        head += 1
        side = parts[v]
        for e in graph.vertex_nets(v):
            for u in graph.net_pins(e):
                if parts[u] == -1:
                    parts[u] = side
                    frontier.append(u)
    for v in range(n):
        if parts[v] == -1:  # disconnected from every terminal
            parts[v] = rng.randrange(2)

    # Greedy balance repair: shed free vertices from the overfull side,
    # lightest first so the repair overshoots minimally.
    loads = [0.0, 0.0]
    for v in range(n):
        loads[parts[v]] += graph.area(v)
    for _ in range(n):
        violation = balance.violation(loads)
        if violation == 0.0:
            break
        heavy = 0 if loads[0] > loads[1] else 1
        movers = [
            v
            for v in range(n)
            if parts[v] == heavy and fixture[v] == FREE
        ]
        if not movers:
            break
        need = max(
            loads[heavy] - balance.max_loads[heavy],
            balance.min_loads[1 - heavy] - loads[1 - heavy],
        )
        movers.sort(key=graph.area)
        moved_any = False
        for v in movers:
            if need <= 0:
                break
            area = graph.area(v)
            if area == 0:
                continue
            parts[v] = 1 - heavy
            loads[heavy] -= area
            loads[1 - heavy] += area
            need -= area
            moved_any = True
        if not moved_any:
            break
    return parts


def greedy_bfs_bipartition(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Breadth-first growth construction.

    Grows side 0 from a random seed (or from the vertices fixed in side
    0) along hypergraph adjacency until it holds roughly half the area;
    everything else goes to side 1.  Produces far better starting cuts
    than random construction on local netlists, which makes it a useful
    contrast baseline for the "does multistart still matter" experiments.
    """
    if balance.num_parts != 2:
        raise ValueError("bipartition constructor is strictly 2-way")
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, 2)
    rng = rng or random.Random()

    parts = [1] * n
    loads = [0.0, 0.0]
    for v in range(n):
        if fixture[v] != FREE:
            parts[v] = fixture[v]
            loads[fixture[v]] += graph.area(v)
        else:
            loads[1] += graph.area(v)

    target0 = (balance.min_loads[0] + balance.max_loads[0]) / 2.0
    frontier: List[int] = [
        v for v in range(n) if fixture[v] == 0
    ]
    visited = [fixture[v] != FREE for v in range(n)]
    if not frontier:
        free = [v for v in range(n) if fixture[v] == FREE]
        if not free:
            return parts
        seed = rng.choice(free)
        frontier = [seed]

    head = 0
    while head < len(frontier) and loads[0] < target0:
        v = frontier[head]
        head += 1
        if fixture[v] == FREE and parts[v] == 1:
            parts[v] = 0
            loads[1] -= graph.area(v)
            loads[0] += graph.area(v)
        for e in graph.vertex_nets(v):
            for u in graph.net_pins(e):
                if not visited[u]:
                    visited[u] = True
                    frontier.append(u)
        if head == len(frontier) and loads[0] < target0:
            unvisited = [
                u
                for u in range(n)
                if fixture[u] == FREE and parts[u] == 1 and not visited[u]
            ]
            if unvisited:
                nxt = rng.choice(unvisited)
                visited[nxt] = True
                frontier.append(nxt)
    return parts
