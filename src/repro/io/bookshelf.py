"""Bookshelf-style benchmark format with fixed terminals.

Section IV of the paper proposes a benchmark format for the
fixed-terminals regime with these features, all implemented here:

* multiple partitions with capacities and tolerances, in *absolute* or
  *relative* (percentage) semantics;
* multi-balanced problems: each node supplies ``k >= 1`` resource values
  ("multi-area" files -- multiple areas repeated on the node line), with
  a capacity/tolerance pair per resource per partition;
* flexible fixed assignments: a node may be fixed in one partition or in
  any of a set of partitions (OR semantics);
* terminal marking on node lines.

An instance called ``name`` is stored in a directory as ``name.nodes``,
``name.nets``, optional ``name.wts``, ``name.blk`` and optional
``name.fix``.  The syntax is line-oriented with ``#`` comments:

``name.nodes``::

    NumNodes : <n>
    NumTerminals : <t>
    <node> <area> [<area2> ...] [terminal]

``name.nets``::

    NumNets : <m>
    NumPins : <p>
    NetDegree : <d> [<netname>]
    <node>
    ...

``name.wts``::

    <netname> <weight>

``name.blk``::

    NumPartitions : <k>
    NumResources : <r>
    Semantics : relative | absolute
    <pid> capacity <c_0> ... <c_{r-1}> tolerance <t_0> ... <t_{r-1}>

  Relative semantics reads capacities and tolerances as percentages of
  the total of each resource (the paper's "2% balance" is capacity 50
  tolerance 2); absolute semantics reads raw capacity, with the
  tolerance added as absolute slack and no lower bound.

``name.fix``::

    <node> <pid> [<pid> ...]
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.instance import PartitioningInstance
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.partition.balance import (
    BalanceConstraint,
    MultiBalanceConstraint,
)

PathLike = Union[str, Path]


class BookshelfFormatError(HypergraphError):
    """Raised on malformed bookshelf content (a ``ValueError``)."""


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_bookshelf(
    instance: PartitioningInstance,
    directory: PathLike,
    relative: bool = True,
) -> None:
    """Write ``instance`` into ``directory`` as ``<instance.name>.*``.

    With ``relative=True`` the ``.blk`` file uses percentage semantics
    derived from the instance's balance windows; with ``relative=False``
    the windows' upper bounds are written as absolute capacities.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = directory / instance.name
    graph = instance.graph
    pads = set(instance.pad_vertices)

    resources = graph.num_resources
    node_lines = [
        f"NumNodes : {graph.num_vertices}",
        f"NumTerminals : {len(pads)}",
    ]
    for v in range(graph.num_vertices):
        values = " ".join(
            _fmt(graph.resource(v, r)) for r in range(resources)
        )
        suffix = " terminal" if v in pads else ""
        node_lines.append(f"{graph.vertex_name(v)} {values}{suffix}")
    base.with_suffix(".nodes").write_text("\n".join(node_lines) + "\n")

    net_lines = [
        f"NumNets : {graph.num_nets}",
        f"NumPins : {graph.num_pins}",
    ]
    for e in range(graph.num_nets):
        net_lines.append(
            f"NetDegree : {graph.net_size(e)} {graph.net_name(e)}"
        )
        for v in graph.net_pins(e):
            net_lines.append(f"  {graph.vertex_name(v)}")
    base.with_suffix(".nets").write_text("\n".join(net_lines) + "\n")

    if any(graph.net_weight(e) != 1 for e in range(graph.num_nets)):
        wts_lines = [
            f"{graph.net_name(e)} {graph.net_weight(e)}"
            for e in range(graph.num_nets)
        ]
        base.with_suffix(".wts").write_text("\n".join(wts_lines) + "\n")

    blk_lines = _format_blk(instance, relative)
    base.with_suffix(".blk").write_text("\n".join(blk_lines) + "\n")

    fix_lines = []
    for v, fs in enumerate(instance.fixture_sets):
        if fs is not None:
            parts = " ".join(str(p) for p in sorted(fs))
            fix_lines.append(f"{graph.vertex_name(v)} {parts}")
    if fix_lines:
        base.with_suffix(".fix").write_text("\n".join(fix_lines) + "\n")


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(x)


def _format_blk(
    instance: PartitioningInstance,
    relative: bool,
) -> List[str]:
    balance = instance.balance
    if isinstance(balance, MultiBalanceConstraint):
        constraints = list(balance.constraints)
    else:
        constraints = [balance]
    k = instance.num_parts
    lines = [
        f"NumPartitions : {k}",
        f"NumResources : {len(constraints)}",
        f"Semantics : {'relative' if relative else 'absolute'}",
    ]
    totals = [
        sum(instance.graph.resource_vector(r))
        for r in range(len(constraints))
    ]
    for pid in range(k):
        caps = []
        tols = []
        for r, c in enumerate(constraints):
            hi = c.max_loads[pid]
            lo = c.min_loads[pid]
            if relative:
                total = totals[r] or 1.0
                center = (hi + lo) / 2.0
                caps.append(_fmt(100.0 * center / total))
                half_window = (hi - lo) / 2.0
                tols.append(
                    _fmt(100.0 * half_window / center if center else 0.0)
                )
            else:
                caps.append(_fmt(hi))
                tols.append(_fmt(0.0))
        lines.append(
            f"{pid} capacity {' '.join(caps)} tolerance {' '.join(tols)}"
        )
    return lines


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_bookshelf(directory: PathLike, name: str) -> PartitioningInstance:
    """Read the instance ``name`` from ``directory``."""
    base = Path(directory) / name
    nodes_path = base.with_suffix(".nodes")
    nets_path = base.with_suffix(".nets")
    blk_path = base.with_suffix(".blk")
    for required in (nodes_path, nets_path, blk_path):
        if not required.exists():
            raise BookshelfFormatError(f"missing file: {required}")

    names, resource_rows, terminals = _read_nodes(nodes_path)
    index = {node: i for i, node in enumerate(names)}
    nets, net_names = _read_nets(nets_path, index)

    weights = [1] * len(nets)
    wts_path = base.with_suffix(".wts")
    if wts_path.exists():
        by_name = {n: e for e, n in enumerate(net_names)}
        for lineno, tokens in _tokens(wts_path):
            if len(tokens) != 2:
                raise BookshelfFormatError(
                    f"{wts_path}:{lineno}: expected '<net> <weight>'"
                )
            if tokens[0] not in by_name:
                raise BookshelfFormatError(
                    f"{wts_path}:{lineno}: unknown net {tokens[0]!r}"
                )
            weights[by_name[tokens[0]]] = int(tokens[1])

    num_resources = len(resource_rows[0]) if resource_rows else 1
    areas = [row[0] for row in resource_rows]
    extra = [
        [row[r] for row in resource_rows]
        for r in range(1, num_resources)
    ]
    graph = Hypergraph(
        nets,
        num_vertices=len(names),
        areas=areas,
        net_weights=weights,
        vertex_names=names,
        net_names=net_names,
        extra_resources=extra or None,
    )

    num_parts, balance = _read_blk(blk_path, graph)

    fixture_sets: List[Optional[frozenset]] = [None] * graph.num_vertices
    fix_path = base.with_suffix(".fix")
    if fix_path.exists():
        for lineno, tokens in _tokens(fix_path):
            if len(tokens) < 2:
                raise BookshelfFormatError(
                    f"{fix_path}:{lineno}: expected '<node> <pid>...'"
                )
            if tokens[0] not in index:
                raise BookshelfFormatError(
                    f"{fix_path}:{lineno}: unknown node {tokens[0]!r}"
                )
            try:
                pids = frozenset(int(t) for t in tokens[1:])
            except ValueError as exc:
                raise BookshelfFormatError(
                    f"{fix_path}:{lineno}: bad partition id"
                ) from exc
            fixture_sets[index[tokens[0]]] = pids

    return PartitioningInstance(
        graph=graph,
        num_parts=num_parts,
        balance=balance,
        fixture_sets=fixture_sets,
        pad_vertices=terminals,
        name=name,
    )


def _tokens(path: Path) -> List[Tuple[int, List[str]]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped.split()))
    return out


def _header_int(tokens: List[str], path: Path, lineno: int) -> int:
    # "Key : value" or "Key: value"
    try:
        return int(tokens[-1])
    except ValueError as exc:
        raise BookshelfFormatError(
            f"{path}:{lineno}: expected integer header value"
        ) from exc


def _read_nodes(
    path: Path,
) -> Tuple[List[str], List[List[float]], List[int]]:
    names: List[str] = []
    seen = set()
    rows: List[List[float]] = []
    terminals: List[int] = []
    declared_nodes = declared_terms = None
    width: Optional[int] = None
    for lineno, tokens in _tokens(path):
        if tokens[0] == "NumNodes":
            declared_nodes = _header_int(tokens, path, lineno)
            continue
        if tokens[0] == "NumTerminals":
            declared_terms = _header_int(tokens, path, lineno)
            continue
        name = tokens[0]
        rest = tokens[1:]
        is_terminal = bool(rest) and rest[-1].lower() == "terminal"
        if is_terminal:
            rest = rest[:-1]
        if not rest:
            raise BookshelfFormatError(
                f"{path}:{lineno}: node line needs at least one area"
            )
        try:
            values = [float(t) for t in rest]
        except ValueError as exc:
            raise BookshelfFormatError(
                f"{path}:{lineno}: bad area value"
            ) from exc
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise BookshelfFormatError(
                f"{path}:{lineno}: expected {width} resource values, "
                f"got {len(values)}"
            )
        if name in seen:
            raise BookshelfFormatError(
                f"{path}:{lineno}: duplicate node {name!r}"
            )
        seen.add(name)
        if is_terminal:
            terminals.append(len(names))
        names.append(name)
        rows.append(values)
    if declared_nodes is not None and declared_nodes != len(names):
        raise BookshelfFormatError(
            f"{path}: NumNodes={declared_nodes} but {len(names)} node lines"
        )
    if declared_terms is not None and declared_terms != len(terminals):
        raise BookshelfFormatError(
            f"{path}: NumTerminals={declared_terms} but "
            f"{len(terminals)} terminal lines"
        )
    return names, rows, terminals


def _read_nets(
    path: Path, index: Dict[str, int]
) -> Tuple[List[List[int]], List[str]]:
    nets: List[List[int]] = []
    net_names: List[str] = []
    declared_nets = declared_pins = None
    expecting = 0
    for lineno, tokens in _tokens(path):
        if tokens[0] == "NumNets":
            declared_nets = _header_int(tokens, path, lineno)
            continue
        if tokens[0] == "NumPins":
            declared_pins = _header_int(tokens, path, lineno)
            continue
        if tokens[0] == "NetDegree":
            if expecting:
                raise BookshelfFormatError(
                    f"{path}:{lineno}: previous net short of "
                    f"{expecting} pin(s)"
                )
            expecting = _header_int(tokens[:2] + [tokens[2]], path, lineno)
            name = tokens[3] if len(tokens) > 3 else f"n{len(nets)}"
            nets.append([])
            net_names.append(name)
            continue
        if not nets or not expecting:
            raise BookshelfFormatError(
                f"{path}:{lineno}: pin line outside a NetDegree block"
            )
        if tokens[0] not in index:
            raise BookshelfFormatError(
                f"{path}:{lineno}: unknown node {tokens[0]!r}"
            )
        nets[-1].append(index[tokens[0]])
        expecting -= 1
    if expecting:
        raise BookshelfFormatError(
            f"{path}: final net short of {expecting} pin(s)"
        )
    if declared_nets is not None and declared_nets != len(nets):
        raise BookshelfFormatError(
            f"{path}: NumNets={declared_nets} but {len(nets)} nets"
        )
    total_pins = sum(len(p) for p in nets)
    if declared_pins is not None and declared_pins != total_pins:
        raise BookshelfFormatError(
            f"{path}: NumPins={declared_pins} but {total_pins} pins"
        )
    return nets, net_names


def _read_blk(
    path: Path, graph: Hypergraph
) -> Tuple[int, Union[BalanceConstraint, MultiBalanceConstraint]]:
    num_parts = None
    num_resources = 1
    relative = True
    rows: Dict[int, Tuple[List[float], List[float]]] = {}
    for lineno, tokens in _tokens(path):
        if tokens[0] == "NumPartitions":
            num_parts = _header_int(tokens, path, lineno)
            continue
        if tokens[0] == "NumResources":
            num_resources = _header_int(tokens, path, lineno)
            continue
        if tokens[0] == "Semantics":
            semantics = tokens[-1].lower()
            if semantics not in ("relative", "absolute"):
                raise BookshelfFormatError(
                    f"{path}:{lineno}: semantics must be "
                    "'relative' or 'absolute'"
                )
            relative = semantics == "relative"
            continue
        # "<pid> capacity c... tolerance t..."
        try:
            pid = int(tokens[0])
        except ValueError as exc:
            raise BookshelfFormatError(
                f"{path}:{lineno}: expected partition id"
            ) from exc
        try:
            cap_at = tokens.index("capacity")
            tol_at = tokens.index("tolerance")
            caps = [float(t) for t in tokens[cap_at + 1 : tol_at]]
            tols = [float(t) for t in tokens[tol_at + 1 :]]
        except (ValueError, IndexError) as exc:
            raise BookshelfFormatError(
                f"{path}:{lineno}: expected "
                "'<pid> capacity <c...> tolerance <t...>'"
            ) from exc
        if len(caps) != num_resources or len(tols) != num_resources:
            raise BookshelfFormatError(
                f"{path}:{lineno}: expected {num_resources} capacities "
                "and tolerances"
            )
        rows[pid] = (caps, tols)
    if num_parts is None:
        raise BookshelfFormatError(f"{path}: missing NumPartitions")
    if set(rows) != set(range(num_parts)):
        raise BookshelfFormatError(
            f"{path}: need one line per partition 0..{num_parts - 1}"
        )
    if num_resources > graph.num_resources:
        raise BookshelfFormatError(
            f"{path}: declares {num_resources} resources but nodes "
            f"carry {graph.num_resources}"
        )

    constraints = []
    for r in range(num_resources):
        total = sum(graph.resource_vector(r))
        mins = []
        maxs = []
        for pid in range(num_parts):
            cap, tol = rows[pid][0][r], rows[pid][1][r]
            if relative:
                center = total * cap / 100.0
                half = center * tol / 100.0
                mins.append(center - half)
                maxs.append(center + half)
            else:
                mins.append(0.0)
                maxs.append(cap + tol)
        constraints.append(
            BalanceConstraint(min_loads=mins, max_loads=maxs)
        )
    if len(constraints) == 1:
        return num_parts, constraints[0]
    return num_parts, MultiBalanceConstraint(constraints=constraints)
