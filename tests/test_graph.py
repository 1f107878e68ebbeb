import math
import warnings

import numpy as np
import pytest

from netcoh.errors import (
    NodeOutOfRangeError,
    NonPositiveAlphaError,
    NonPositiveWeightError,
    SelfLoopError,
    TooFewNodesError,
)
from netcoh.graph import (
    DisconnectedWarning,
    builder,
    from_edge_list,
    read_edge_list,
)


class TestFromEdgeList:
    def test_two_node_analytic_spectrum(self):
        w = 2.5
        L = from_edge_list([(0, 1, w)], 2)
        assert L.entries == pytest.approx(np.array([[w, -w], [-w, w]]))
        assert L.eigenvalues == pytest.approx([0, 2 * w])

    def test_complete_k3(self):
        L = builder("complete", 3)
        assert L.eigenvalues == pytest.approx([0, 3, 3])

    def test_ring_of_four_against_eigh_oracle(self):
        L = builder("ring", 4)
        oracle = np.sort(np.linalg.eigvalsh(L.entries))
        assert L.eigenvalues == pytest.approx(oracle)
        assert L.eigenvalues == pytest.approx([0, 2, 2, 4])

    def test_duplicate_edges_summed(self):
        L = from_edge_list([(0, 1, 1.0), (0, 1, 2.0)], 2)
        assert L.entries[0, 1] == -3.0

    def test_errors(self):
        with pytest.raises(SelfLoopError):
            from_edge_list([(0, 0, 1.0)], 2)
        with pytest.raises(NonPositiveWeightError):
            from_edge_list([(0, 1, 0.0)], 2)
        with pytest.raises(NodeOutOfRangeError):
            from_edge_list([(0, 5, 1.0)], 2)

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="must be a finite number"):
            from_edge_list([(0, 1, w)], 2)


class TestBuilders:
    def test_complete_lambda2(self):
        assert builder("complete", 5).lambda2 == pytest.approx(5)

    def test_star_against_oracle(self):
        L = builder("star", 4)
        oracle = np.sort(np.linalg.eigvalsh(L.entries))
        assert L.eigenvalues == pytest.approx(oracle)
        assert L.lambda2 == pytest.approx(1.0)

    def test_two_node_path_weighted(self):
        assert builder("path", 2, 3.0).lambda2 == pytest.approx(6.0)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodesError):
            builder("ring", 1)


class TestScale:
    def test_spectrum_scales_linearly(self):
        L = builder("complete", 3)
        assert L.scale(10).lambda2 == pytest.approx(30)

    def test_identity_scale(self):
        L = builder("path", 3)
        assert np.array_equal(L.scale(1.0).entries, L.entries)
        assert np.array_equal(L.scale(1.0).eigenvectors, L.eigenvectors)

    def test_composition_exact_in_spectrum(self):
        L = builder("ring", 5)
        ab = L.scale(2.0).scale(3.0)
        direct = L.scale(6.0)
        assert np.array_equal(ab.eigenvalues, direct.eigenvalues)

    def test_nonpositive_alpha(self):
        with pytest.raises(NonPositiveAlphaError):
            builder("path", 2).scale(0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, "2"])
    def test_non_number_alpha(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^alpha must be a finite number"):
                builder("path", 2).scale(alpha)


class TestInvariants:
    @pytest.mark.parametrize("kind,n", [("complete", 6), ("ring", 7),
                                        ("star", 5), ("path", 4)])
    def test_rows_and_columns_sum_to_zero(self, kind, n):
        L = builder(kind, n)
        ones = np.ones(n)
        tol = 1e-10 * np.linalg.norm(L.entries)
        assert np.linalg.norm(L.entries @ ones) <= tol
        assert np.linalg.norm(ones @ L.entries) <= tol

    def test_eigenvector_matrix_orthonormal(self):
        L = builder("ring", 6)
        V = L.eigenvectors
        assert np.linalg.norm(V.T @ V - np.eye(6)) <= 1e-10
        assert V[:, 0] == pytest.approx(np.ones(6) / np.sqrt(6))

    def test_connectivity_matches_union_find_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        edges.append((i, j, float(rng.uniform(0.5, 2.0))))
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j, _ in edges:
                parent[find(i)] = find(j)
            connected = len({find(i) for i in range(n)}) == 1
            if not edges:
                continue
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DisconnectedWarning)
                L = from_edge_list(edges, n)
            assert (L.lambda2 > 1e-10) == connected

    def test_disconnected_warning(self):
        with pytest.warns(DisconnectedWarning):
            from_edge_list([(0, 1, 1.0), (2, 3, 1.0)], 4)


class TestEdgeListFile(object):
    def test_parse_with_comments_and_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a triangle plus isolated node\nn=4\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedWarning)
            L = read_edge_list(p)
        assert L.n == 4
        assert L.entries[0, 1] == -1.0

    def test_inferred_node_count(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 2 1.5\n1 2 0.5\n")
        L = read_edge_list(p)
        assert L.n == 3
