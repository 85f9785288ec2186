"""Graph IR, tracer, shape inference and FLOP counting."""

import numpy as np
import pytest

from repro.graph import Graph, Node, OpType, conv_out_hw, count_graph_flops, node_flops, pool_out_hw, trace_model
from repro.nn import SearchableResNet18, build_baseline_resnet18, count_parameters
from repro.tensor.tensor import Tensor


class TestShapes:
    def test_conv_out_hw(self):
        assert conv_out_hw((100, 100), 7, 2, 3) == (50, 50)
        assert conv_out_hw((100, 100), 3, 2, 1) == (50, 50)
        assert conv_out_hw((100, 100), 3, 1, 1) == (100, 100)
        with pytest.raises(ValueError):
            conv_out_hw((4, 4), 7, 1, 0)

    def test_pool_out_hw(self):
        assert pool_out_hw((50, 50), 3, 2) == (24, 24)
        assert pool_out_hw((50, 50), 2, 2) == (25, 25)
        with pytest.raises(ValueError):
            pool_out_hw((2, 2), 3, 1)


class TestGraphStructure:
    def _mini(self):
        g = Graph()
        a = g.add_node(Node("in", OpType.INPUT, (3, 8, 8), (3, 8, 8)))
        b = g.add_node(Node("conv", OpType.CONV, (3, 8, 8), (4, 8, 8),
                            attrs={"in_channels": 3, "out_channels": 4, "kernel": 3, "stride": 1, "padding": 1},
                            params=108))
        c = g.add_node(Node("out", OpType.OUTPUT, (4, 8, 8), (4, 8, 8)))
        g.add_edge(a, b)
        g.add_edge(b, c)
        return g

    def test_duplicate_names_rejected(self):
        g = self._mini()
        with pytest.raises(ValueError):
            g.add_node(Node("conv", OpType.RELU, (1,), (1,)))

    def test_edge_to_unknown_node_rejected(self):
        g = self._mini()
        with pytest.raises(KeyError):
            g.add_edge("conv", "ghost")

    def test_validate_passes_for_consistent_graph(self):
        self._mini().validate()

    def test_validate_rejects_shape_mismatch(self):
        g = self._mini()
        bad = g.add_node(Node("bad", OpType.RELU, (9, 9, 9), (9, 9, 9)))
        g.add_edge("conv", "bad")
        g.add_edge("bad", "out")
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_rejects_dangling(self):
        g = self._mini()
        g.add_node(Node("orphan", OpType.RELU, (1,), (1,)))
        with pytest.raises(ValueError):
            g.validate()

    def test_node_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Node("x", OpType.RELU, (0, 3), (1, 3))

    def test_topological_order_respects_edges(self):
        g = self._mini()
        order = [n.name for n in g.topological()]
        assert order.index("in") < order.index("conv") < order.index("out")

    @pytest.mark.parametrize("edge", [("out", "conv"), ("conv", "conv")])
    def test_cycle_raises_value_error(self, edge):
        g = self._mini()
        g.add_edge(*edge)
        with pytest.raises(ValueError, match="cycle"):
            g.topological()
        with pytest.raises(ValueError, match="cycle"):
            g.validate()


class TestTrace:
    def test_traced_params_equal_model_params(self):
        model = build_baseline_resnet18(in_channels=5)
        graph = trace_model(model, (100, 100))
        assert graph.total_params() == count_parameters(model)

    def test_no_pool_variant_has_no_maxpool_node(self):
        model = SearchableResNet18(kernel_size=3, padding=1, pool_choice=0, initial_output_feature=32)
        graph = trace_model(model, (64, 64))
        assert graph.ops(OpType.MAX_POOL) == []

    def test_residual_adds_have_two_producers(self):
        model = SearchableResNet18(kernel_size=3, padding=1, pool_choice=0, initial_output_feature=32)
        graph = trace_model(model, (64, 64))
        adds = graph.ops(OpType.ADD)
        assert len(adds) == 8  # 2 blocks x 4 stages
        for add in adds:
            assert len(graph.predecessors(add)) == 2

    def test_traced_shapes_match_real_forward(self):
        model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                                   pool_choice=1, kernel_size_pool=3, stride_pool=2,
                                   initial_output_feature=32)
        graph = trace_model(model, (64, 64))
        out_node = graph.ops(OpType.OUTPUT)[0]
        x = Tensor(np.zeros((1, 5, 64, 64), dtype=np.float32))
        model.eval()
        real = model(x)
        assert tuple(real.shape[1:]) == out_node.out_shape

    def test_trace_rejects_collapsing_input(self):
        model = build_baseline_resnet18(in_channels=5)
        # Stem leaves a 2x2 map; the 3x3/2 max pool then collapses it.
        with pytest.raises(ValueError):
            trace_model(model, (4, 4))


class TestFlops:
    def test_conv_flops_formula(self):
        node = Node("c", OpType.CONV, (3, 10, 10), (8, 10, 10),
                    attrs={"in_channels": 3, "out_channels": 8, "kernel": 3, "stride": 1, "padding": 1})
        assert node_flops(node) == 2 * 3 * 9 * 8 * 100

    def test_fc_flops(self):
        node = Node("f", OpType.FC, (128,), (2,), attrs={"in_features": 128, "out_features": 2})
        assert node_flops(node) == 2 * 128 * 2

    def test_io_nodes_free(self):
        assert node_flops(Node("i", OpType.INPUT, (3, 4, 4), (3, 4, 4))) == 0

    def test_baseline_total_in_expected_range(self):
        graph = trace_model(build_baseline_resnet18(in_channels=5), (100, 100))
        total = count_graph_flops(graph)
        # Hand-computed: ~0.70 GFLOPs for ResNet-18 at 100x100.
        assert 0.6e9 < total < 0.8e9

    def test_flops_scale_with_resolution(self):
        model = SearchableResNet18(kernel_size=3, padding=1, pool_choice=0, initial_output_feature=32)
        small = count_graph_flops(trace_model(model, (50, 50)))
        large = count_graph_flops(trace_model(model, (100, 100)))
        assert large / small == pytest.approx(4.0, rel=0.2)
