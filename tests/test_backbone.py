"""Disparity filtering and graph export."""

import io

import networkx as nx
import numpy as np
import pytest

from ioresponse.backbone import disparity_filter, export_graph
from ioresponse.errors import InvalidP, UnsupportedFormat


def _edge_set(graph):
    return {(e.source, e.target) for e in graph.edges}


def _codes(m):
    """S00, S01, ...: one label per row of ``m``."""
    return [f"S{k:02d}" for k in range(len(m))]


@pytest.fixture()
def four_node_matrix():
    # S -> T1: 9, S -> T2: 1, U -> T1: 5, U -> T2: 5
    m = np.zeros((4, 4))
    m[0, 2] = 9.0
    m[0, 3] = 1.0
    m[1, 2] = 5.0
    m[1, 3] = 5.0
    return m


class TestAlpha:
    def test_two_equal_out_weights(self, four_node_matrix):
        graph = disparity_filter(four_node_matrix, p=0.6, sectors=["S", "U", "T1", "T2"], mode="out")
        by_pair = {(e.source, e.target): e for e in graph.edges}
        assert by_pair[("U", "T1")].alpha == pytest.approx(0.5)
        assert by_pair[("U", "T2")].alpha == pytest.approx(0.5)

    def test_nine_one_split(self, four_node_matrix):
        graph = disparity_filter(four_node_matrix, p=0.99, sectors=["S", "U", "T1", "T2"], mode="out")
        by_pair = {(e.source, e.target): e for e in graph.edges}
        assert by_pair[("S", "T1")].alpha == pytest.approx(0.1)
        assert by_pair[("S", "T2")].alpha == pytest.approx(0.9)

    def test_p02_keeps_only_heavy_edge_of_out_direction(self, four_node_matrix):
        graph = disparity_filter(
            four_node_matrix, p=0.2, sectors=["S", "U", "T1", "T2"], mode="out"
        )
        assert _edge_set(graph) == {("S", "T1")}

    def test_two_sided_rescue_through_in_direction(self, four_node_matrix):
        # U -> T2 has alpha_out = 0.5 but alpha_in = 1/6 < 0.2
        graph = disparity_filter(
            four_node_matrix, p=0.2, sectors=["S", "U", "T1", "T2"], mode="either"
        )
        assert _edge_set(graph) == {("S", "T1"), ("U", "T2")}

    def test_equal_weights_removed_at_small_p_kept_at_large_p(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.5
        m[0, 2] = 0.5
        # give targets a second incoming edge so the in-direction cannot rescue
        m[1, 2] = 0.5
        m[2, 1] = 0.5
        removed = disparity_filter(m, p=0.05, sectors=_codes(m), mode="out")
        kept = disparity_filter(m, p=0.6, sectors=_codes(m), mode="out")
        assert ("S00", "S01") not in _edge_set(removed)
        assert {("S00", "S01"), ("S00", "S02")} <= _edge_set(kept)


class TestFilterProperties:
    def test_limit_p_to_one_keeps_full_support(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 6))
        np.fill_diagonal(m, 0.0)
        graph = disparity_filter(m, p=0.999999, sectors=_codes(m))
        assert len(graph.edges) == np.count_nonzero(m)

    def test_monotone_edge_sets_in_p(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            m = rng.normal(size=(7, 7)) * (rng.random(size=(7, 7)) < 0.7)
            np.fill_diagonal(m, 0.0)
            previous = None
            for p in (0.02, 0.05, 0.2, 0.5, 0.9):
                edges = _edge_set(disparity_filter(m, p=p, sectors=_codes(m)))
                if previous is not None:
                    assert previous <= edges
                previous = edges

    def test_sign_attribute_matches_matrix(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        np.fill_diagonal(m, 0.0)
        graph = disparity_filter(m, p=0.9, sectors=_codes(m))
        labels = {code: k for k, code in enumerate(_codes(m))}
        for e in graph.edges:
            value = m[labels[e.source], labels[e.target]]
            assert e.sign == (1 if value > 0 else -1)
            assert e.weight == abs(value)

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) * (rng.random(size=(6, 6)) < 0.6)
        np.fill_diagonal(m, 0.0)
        for scale in (1e-6, 3.7, 1e8):
            a = disparity_filter(m, p=0.1, sectors=_codes(m))
            b = disparity_filter(scale * m, p=0.1, sectors=_codes(m))
            assert _edge_set(a) == _edge_set(b)
            for ea, eb in zip(a.edges, b.edges):
                assert ea.alpha == pytest.approx(eb.alpha, rel=1e-9)

    def test_degree_one_edges_preserved_and_flagged(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0  # node 0 has out-degree 1; node 1 in-degree 1
        m[2, 0] = 0.5
        graph = disparity_filter(m, p=0.01, sectors=_codes(m))
        pairs = {(e.source, e.target): e for e in graph.edges}
        assert ("S00", "S01") in pairs
        assert pairs[("S00", "S01")].preserved

    def test_significant_edge_not_flagged(self, four_node_matrix):
        graph = disparity_filter(four_node_matrix, p=0.2, sectors=["S", "U", "T1", "T2"])
        for e in graph.edges:
            assert not e.preserved or e.alpha >= 0.2

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            disparity_filter(np.eye(3), p=0.0, sectors=_codes(np.eye(3)))
        with pytest.raises(InvalidP):
            disparity_filter(np.eye(3), p=1.0, sectors=_codes(np.eye(3)))

    def test_node_attributes(self, four_node_matrix):
        graph = disparity_filter(
            four_node_matrix, p=0.99, sectors=["S", "U", "T1", "T2"],
            node_values={"S": 1.5},
        )
        by_code = {n.code: n for n in graph.nodes}
        assert by_code["T1"].in_weight == pytest.approx(14.0)
        assert by_code["S"].value == 1.5
        assert by_code["S"].group  # falls back to "Other" for unknown codes


class TestExport:
    def test_empty_backbone_is_header_only(self):
        m = np.zeros((3, 3)) + np.eye(3)
        graph = disparity_filter(m, p=0.05, sectors=_codes(m))
        text = export_graph(graph, "edgelist")
        assert text == "from,to,weight,sign,alpha,preserved_flag\n"

    def test_two_edge_graph_sorted_rows(self, four_node_matrix):
        graph = disparity_filter(
            four_node_matrix, p=0.2, sectors=["S", "U", "T1", "T2"]
        )
        lines = export_graph(graph, "edgelist").strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("S,T1,")
        assert lines[2].startswith("U,T2,")

    def test_unknown_format(self, four_node_matrix):
        graph = disparity_filter(four_node_matrix, p=0.2, sectors=["S", "U", "T1", "T2"])
        with pytest.raises(UnsupportedFormat):
            export_graph(graph, "dot")

    def test_graphml_round_trip_through_networkx(self, four_node_matrix):
        graph = disparity_filter(
            four_node_matrix, p=0.99, sectors=["S", "U", "T1", "T2"]
        )
        text = export_graph(graph, "graphml")
        loaded = nx.read_graphml(io.StringIO(text))
        assert loaded.number_of_nodes() == len(graph.nodes)
        assert loaded.number_of_edges() == len(graph.edges)
        for e in graph.edges:
            data = loaded.get_edge_data(e.source, e.target)
            assert data["weight"] == e.weight
            assert data["alpha"] == e.alpha
            assert data["sign"] == e.sign
