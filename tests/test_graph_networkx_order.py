"""The graph IR's node orders against networkx, the oracle.

``Graph.topological()`` fixes the summation order of every latency and
FLOP total, so it must be exactly ``networkx.topological_sort``'s order,
and ``predecessors``/``successors`` must list neighbours as ``DiGraph``
does.  networkx is a test-only dependency.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, Node, OpType, trace_model
from repro.graph import trace as trace_module
from repro.nas.searchspace import DEFAULT_SPACE
from repro.nn import build_baseline_resnet18
from repro.nn.init import skip_init
from repro.nn.resnet import build_model

nx = pytest.importorskip("networkx")


class _Mirrored(Graph):
    """A Graph that replays every insertion into a networkx ``DiGraph``."""

    def __init__(self) -> None:
        super().__init__()
        self.oracle = nx.DiGraph()

    def add_node(self, node: Node) -> Node:
        super().add_node(node)
        self.oracle.add_node(node.name)
        return node

    def add_edge(self, src, dst) -> None:
        super().add_edge(src, dst)
        self.oracle.add_edge(getattr(src, "name", src), getattr(dst, "name", dst))


def _assert_networkx_orders(graph: _Mirrored) -> None:
    oracle = graph.oracle
    assert [n.name for n in graph.nodes()] == list(oracle.nodes)
    assert [n.name for n in graph.topological()] == list(nx.topological_sort(oracle))
    for name in oracle.nodes:
        assert [n.name for n in graph.predecessors(name)] == list(oracle.predecessors(name))
        assert [n.name for n in graph.successors(name)] == list(oracle.successors(name))


def _grid_architectures():
    """One config per distinct network of the paper's grid (360)."""
    seen = {}
    for config in DEFAULT_SPACE.iter_all():
        seen.setdefault(config.architecture_key(), config)
    return list(seen.values())


class TestTracedModels:
    def test_every_grid_architecture_and_the_baseline(self, monkeypatch):
        monkeypatch.setattr(trace_module, "Graph", _Mirrored)
        configs = _grid_architectures()
        assert len(configs) == 360
        with skip_init():
            models = [build_model(config) for config in configs]
            models.append(build_baseline_resnet18(in_channels=5))
        for model in models:
            graph = trace_model(model, (100, 100))
            assert isinstance(graph, _Mirrored)
            _assert_networkx_orders(graph)


@st.composite
def _dags(draw):
    """A node count and a shuffled edge list with repeated edges.  Edges
    run from lower to higher rank under a random ranking of the nodes, so
    the graph is acyclic but node insertion order is not topological."""
    n = draw(st.integers(1, 12))
    rank = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = [(min(a, b, key=rank.__getitem__), max(a, b, key=rank.__getitem__))
             for a, b in draw(st.lists(pairs, max_size=30))]
    if edges:
        repeats = draw(st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=10))
        edges += [edges[i] for i in repeats]
    return n, draw(st.permutations(edges))


class TestRandomDags:
    @settings(max_examples=200, deadline=None)
    @given(_dags())
    def test_orders_match_networkx_and_duplicate_edges_are_ignored(self, dag):
        n, edges = dag
        graph = _Mirrored()
        for i in range(n):
            graph.add_node(Node(f"n{i}", OpType.RELU, (1,), (1,)))
        for a, b in edges:
            graph.add_edge(f"n{a}", f"n{b}")
        _assert_networkx_orders(graph)
        assert repr(graph) == f"Graph(nodes={n}, edges={graph.oracle.number_of_edges()})"
