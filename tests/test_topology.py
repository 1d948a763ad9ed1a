import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import dijkstra_matrix
from replicaplan import (
    ConnectivityError,
    Graph,
    ParameterError,
    StructuralError,
    all_pairs_shortest_paths,
    assign_link_costs,
    generate_ba_topology,
    load_topology,
    save_topology,
)


class TestGenerate:
    def test_single_node(self):
        g = generate_ba_topology(1, 1, 7)
        assert g.node_count == 1
        assert g.edges == ()

    def test_two_nodes(self):
        g = generate_ba_topology(2, 1, 0)
        assert g.edges == ((0, 1, 1),)

    def test_tree_at_fifty(self):
        g = generate_ba_topology(50, 1, 123)
        assert len(g.edges) == 49
        all_pairs_shortest_paths(g)  # raises ConnectivityError unless connected

    def test_deterministic(self):
        a = generate_ba_topology(30, 2, 99)
        b = generate_ba_topology(30, 2, 99)
        assert a.edges == b.edges

    def test_seed_changes_structure(self):
        a = generate_ba_topology(30, 2, 1)
        b = generate_ba_topology(30, 2, 2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("n,m_links", [(0, 1), (3, 0), (3, 3), (2, 2)])
    def test_bad_params(self, n, m_links):
        with pytest.raises(ParameterError):
            generate_ba_topology(n, m_links, 0)

    @given(n=st.integers(2, 40), m_links=st.integers(1, 4), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_always_connected_no_dupes(self, n, m_links, seed):
        if m_links >= n:
            return
        g = generate_ba_topology(n, m_links, seed)
        all_pairs_shortest_paths(g)  # raises ConnectivityError unless connected
        keys = [(u, v) for u, v, _ in g.edges]
        assert len(keys) == len(set(keys))


class TestLinkCosts:
    def test_degenerate_range(self):
        g = assign_link_costs(generate_ba_topology(20, 1, 3), 5, 5, 11)
        assert all(c == 5 for _, _, c in g.edges)

    def test_deterministic(self):
        base = generate_ba_topology(20, 2, 3)
        assert assign_link_costs(base, 1, 10, 4).edges == assign_link_costs(base, 1, 10, 4).edges

    def test_bounds_and_mean(self):
        # enough edges for the sample mean of U[1,10] to sit well inside [5, 6]
        base = generate_ba_topology(600, 20, 8)
        assert len(base.edges) >= 10_000
        g = assign_link_costs(base, 1, 10, 21)
        costs = np.array([c for _, _, c in g.edges])
        assert costs.min() >= 1 and costs.max() <= 10
        assert 5.0 <= costs.mean() <= 6.0

    def test_bad_range(self):
        g = generate_ba_topology(5, 1, 0)
        with pytest.raises(ParameterError):
            assign_link_costs(g, 0, 10, 0)
        with pytest.raises(ParameterError):
            assign_link_costs(g, 7, 3, 0)


class TestShortestPaths:
    def test_single_node(self):
        matrix = all_pairs_shortest_paths(Graph(1, ()))
        assert matrix.l.tolist() == [[0]]

    def test_path_graph(self):
        g = Graph(3, ((0, 1, 2), (1, 2, 3)))
        matrix = all_pairs_shortest_paths(g)
        assert matrix.l.tolist() == [[0, 2, 5], [2, 0, 3], [5, 3, 0]]

    def test_disconnected_rejected(self):
        g = Graph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ConnectivityError):
            all_pairs_shortest_paths(g)

    def test_isolated_node_with_enough_edges_rejected(self):
        g = Graph(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
        with pytest.raises(ConnectivityError):
            all_pairs_shortest_paths(g)

    def test_too_few_edges_rejected_before_allocating(self):
        # an n x n matrix for a million nodes would need 8 TB
        with pytest.raises(ConnectivityError):
            all_pairs_shortest_paths(Graph(10**6, ((0, 1, 1),)))

    def test_longest_allowed_path_is_exact(self):
        g = Graph(3, ((0, 1, 2**40), (1, 2, 2**40 - 1)))
        assert all_pairs_shortest_paths(g).l[0, 2] == 2**41 - 1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_dijkstra(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = assign_link_costs(generate_ba_topology(n, min(2, n - 1), seed), 1, 9, seed + 1)
        ours = all_pairs_shortest_paths(g).l
        theirs = dijkstra_matrix(n, g.edges)
        assert (ours == theirs).all()

    def test_metric_invariants(self):
        for seed in range(5):
            g = assign_link_costs(generate_ba_topology(25, 2, seed), 1, 10, seed)
            matrix = all_pairs_shortest_paths(g)
            l = matrix.l
            assert (l == l.T).all()
            assert (np.diag(l) == 0).all()
            off = l[~np.eye(25, dtype=bool)]
            assert (off > 0).all()
            matrix.validate()  # includes the triangle inequality


class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(StructuralError):
            Graph(2, ((0, 0, 1),))

    def test_duplicate_edge(self):
        with pytest.raises(StructuralError):
            Graph(2, ((0, 1, 1), (1, 0, 2)))

    def test_nonpositive_cost(self):
        with pytest.raises(ParameterError):
            Graph(2, ((0, 1, 0),))

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            Graph(2, ((0, 5, 1),))

    @pytest.mark.parametrize("edges", [((0, 1, 2**42), (1, 2, 1)),
                                       ((0, 1, 2**40), (1, 2, 2**40))])
    def test_edge_cost_sum_bounded(self, edges):
        # the shortest-path sweep would clip such a cost to its 2**41 sentinel
        with pytest.raises(ParameterError, match="2\\*\\*41"):
            Graph(3, edges)

    @pytest.mark.parametrize("edge", [(0, 1), (0, 1, 1, 1), 5])
    def test_edge_must_be_a_triple(self, edge):
        with pytest.raises(StructuralError, match="triple"):
            Graph(3, (edge,))


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        g = assign_link_costs(generate_ba_topology(12, 2, 5), 1, 10, 6)
        path = tmp_path / "topology.json"
        save_topology(g, path)
        again = load_topology(path)
        assert again.node_count == g.node_count
        assert again.edges == g.edges

    @pytest.mark.parametrize("payload", [
        {"nodes": 2.9, "edges": [[0, 1, 1]]},
        {"nodes": 3, "edges": [[0, 1, 2.5], [1, 2, 1]]},
        {"nodes": 3, "edges": [[0, 1.5, 2], [1, 2, 1]]},
        {"nodes": "3", "edges": [[0, 1, 2], [1, 2, 1]]},
    ])
    def test_non_integers_refused(self, tmp_path, payload):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match="must be an integer"):
            load_topology(path)

    def test_integral_floats_accepted(self, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps({"nodes": 3.0, "edges": [[0, 1, 2.0], [1.0, 2, 3]]}))
        g = load_topology(path)
        assert (g.node_count, g.edges) == (3, ((0, 1, 2), (1, 2, 3)))
        assert all(type(v) is int for edge in g.edges for v in edge)

    def test_cost_matrix_csv(self, tmp_path):
        matrix = all_pairs_shortest_paths(Graph(3, ((0, 1, 2), (1, 2, 3))))
        path = tmp_path / "m.csv"
        matrix.to_csv(path)
        assert path.read_text() == "0,2,5\n2,0,3\n5,3,0\n"
