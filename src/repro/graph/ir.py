"""Graph IR: typed operator nodes in a directed acyclic graph on plain dicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["OpType", "Node", "Graph"]


class OpType(str, enum.Enum):
    """Operator vocabulary of the IR (the ops ResNet-18 variants use)."""

    INPUT = "input"
    CONV = "conv"
    BATCH_NORM = "batch_norm"
    RELU = "relu"
    MAX_POOL = "max_pool"
    GLOBAL_AVG_POOL = "global_avg_pool"
    FLATTEN = "flatten"
    FC = "fc"
    ADD = "add"
    OUTPUT = "output"


@dataclass
class Node:
    """One operator in the IR.

    Attributes
    ----------
    name:
        Unique node name (qualified module path, e.g. ``layer2.0.conv1``).
    op:
        Operator type.
    in_shape / out_shape:
        Data shapes excluding the batch dimension — ``(C, H, W)`` for
        spatial tensors, ``(F,)`` after flattening.
    attrs:
        Operator attributes (kernel, stride, padding, channels, ...).
    params:
        Number of trainable scalars owned by the op.
    """

    name: str
    op: OpType
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    attrs: dict[str, Any] = field(default_factory=dict)
    params: int = 0

    def __post_init__(self) -> None:
        self.in_shape = tuple(int(d) for d in self.in_shape)
        self.out_shape = tuple(int(d) for d in self.out_shape)
        for dim in self.in_shape + self.out_shape:
            if dim < 1:
                raise ValueError(f"node {self.name!r} has a non-positive dimension: "
                                 f"in={self.in_shape} out={self.out_shape}")


def _name(node: Node | str) -> str:
    return node.name if isinstance(node, Node) else node


class Graph:
    """An operator DAG with topological iteration and validation.

    Nodes are :class:`Node` objects keyed by name; edges carry data-flow
    direction.  Each node's producers and consumers are kept in edge
    insertion order, and adding an edge that already exists changes
    nothing.  Unknown names raise ``KeyError``.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        # Ordered sets: name -> {neighbour name: neighbour node}.
        self._succ: dict[str, dict[str, Node]] = {}
        self._pred: dict[str, dict[str, Node]] = {}

    # -- construction ------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Insert a node; names must be unique."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = {}
        self._pred[node.name] = {}
        return node

    def add_edge(self, src: Node | str, dst: Node | str) -> None:
        """Connect producer ``src`` to consumer ``dst``."""
        src_name, dst_name = _name(src), _name(dst)
        for name in (src_name, dst_name):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        self._succ[src_name][dst_name] = self._nodes[dst_name]
        self._pred[dst_name][src_name] = self._nodes[src_name]

    # -- access -------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self._nodes[name]

    def nodes(self) -> Iterator[Node]:
        """All nodes in insertion order."""
        return iter(self._nodes.values())

    def topological(self) -> list[Node]:
        """Nodes in topological order; raises ``ValueError`` on a cycle.

        Kahn's algorithm by generations, the order ``networkx.topological_sort``
        gives: first every node without producers in insertion order, then
        each generation's consumers in the order the generation reaches them
        (producer by producer, edges in insertion order).  The order fixes
        the summation order of every latency and FLOP total over the graph.
        """
        pending = {name: len(preds) for name, preds in self._pred.items() if preds}
        generation = [node for name, node in self._nodes.items() if not self._pred[name]]
        order: list[Node] = []
        while generation:
            order += generation
            reached = []
            for node in generation:
                for name, succ in self._succ[node.name].items():
                    pending[name] -= 1
                    if not pending[name]:
                        reached.append(succ)
            generation = reached
        if len(order) != len(self._nodes):
            raise ValueError("graph contains a cycle")
        return order

    def predecessors(self, node: Node | str) -> list[Node]:
        """Producer nodes feeding ``node``."""
        return list(self._pred[_name(node)].values())

    def successors(self, node: Node | str) -> list[Node]:
        """Consumer nodes fed by ``node``."""
        return list(self._succ[_name(node)].values())

    def ops(self, op: OpType) -> list[Node]:
        """All nodes of a given operator type."""
        return [n for n in self.nodes() if n.op is op]

    # -- derived quantities ----------------------------------------------------------

    def total_params(self) -> int:
        """Sum of parameters over all nodes."""
        return sum(n.params for n in self.nodes())

    def validate(self) -> None:
        """Check the IR is a connected DAG with consistent shapes.

        Raises ``ValueError`` on: cycles, dangling non-IO nodes, or an edge
        whose producer output shape disagrees with the consumer input shape
        (ADD nodes compare against each producer individually).
        """
        self.topological()  # raises on a cycle
        for name, node in self._nodes.items():
            preds = self._pred[name]
            if node.op is not OpType.INPUT and not preds:
                raise ValueError(f"non-input node {name!r} has no producers")
            if node.op is not OpType.OUTPUT and not self._succ[name]:
                raise ValueError(f"non-output node {name!r} has no consumers")
            for pred in preds.values():
                if pred.out_shape != node.in_shape:
                    raise ValueError(
                        f"shape mismatch on edge {pred.name!r} -> {name!r}: "
                        f"{pred.out_shape} != {node.in_shape}"
                    )

    def __repr__(self) -> str:
        edges = sum(len(succ) for succ in self._succ.values())
        return f"Graph(nodes={len(self)}, edges={edges})"
