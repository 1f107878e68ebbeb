import math
import warnings

import numpy as np
import pytest

from netcoh.graph import (
    LaplacianMatrix,
    builder,
    from_edge_list,
    read_edge_list,
)


def _loop_laplacian(edges, n):
    """Entries summed edge by edge, in edge order."""
    L = np.zeros((n, n))
    for i, j, w in edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


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
        with pytest.raises(ValueError, match="^self loop at node 0$"):
            from_edge_list([(0, 0, 1.0)], 2)
        with pytest.raises(ValueError, match=r"^edge \(0,1\) has weight 0\.0$"):
            from_edge_list([(0, 1, 0.0)], 2)
        with pytest.raises(ValueError, match=r"^edge \(0,5\) outside 0\.\.1$"):
            from_edge_list([(0, 5, 1.0)], 2)

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1, 1.0), (1, 2, -1.0), (0, 0, 1.0)], r"^edge \(1,2\) has weight -1\.0$"),
        ([(0, 1, 1.0), (3, 3, 1.0), (1, 2, 0.0)], "^self loop at node 3$"),
        ([(0, 1, 1.0), (1, 2, True), (1, 9, 1.0)],
         r"^edge \(1,2\) weight must be a finite number, got True$"),
        ([(0, 1, 1.0), (1, 2**70, 1.0), (1, 1, 1.0)], r"^edge \(1,\d+\) outside 0\.\.2$"),
        ([(0, 1.5, 1.0), (1, 1, 1.0)], r"^edge \(0,1\.5\) node must be an integer"),
    ], ids=["weight", "self-loop", "bool-weight", "huge-index", "float-index"])
    def test_first_invalid_edge_raises(self, edges, message):
        with pytest.raises(ValueError, match=message):
            from_edge_list(edges, 3)

    def test_entries_match_edge_by_edge_loop_bitwise(self):
        # duplicate and reversed edges with weights whose sums round
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            edges = [(*map(int, rng.choice(n, 2, replace=False)), float(rng.uniform(0.01, 10)))
                     for _ in range(int(rng.integers(0, 30)))]
            assert (from_edge_list(edges, n).entries.tobytes()
                    == _loop_laplacian(edges, n).tobytes())

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="must be a finite number"):
            from_edge_list([(0, 1, w)], 2)


class TestBuilders:
    def test_complete_lambda2(self):
        assert builder("complete", 5).lambda2 == pytest.approx(5)

    @pytest.mark.parametrize("weight", [1.0, 0.1, 3])
    @pytest.mark.parametrize("kind", ["complete", "ring", "star", "path"])
    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_entries_match_from_edge_list(self, kind, n, weight):
        edges = {"complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
                 "ring": [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)],
                 "star": [(0, i) for i in range(1, n)],
                 "path": [(i, i + 1) for i in range(n - 1)]}[kind]
        want = _loop_laplacian([(i, j, weight) for i, j in edges], n)
        assert builder(kind, n, weight).entries.tobytes() == want.tobytes()

    def test_complete_640_is_n_identity_minus_ones(self):
        assert np.array_equal(builder("complete", 640).entries, 640 * np.eye(640) - 1)

    def test_builder_weight_errors_name_the_first_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0,1\) has weight -2$"):
            builder("star", 4, -2)

    def test_star_against_oracle(self):
        L = builder("star", 4)
        oracle = np.sort(np.linalg.eigvalsh(L.entries))
        assert L.eigenvalues == pytest.approx(oracle)
        assert L.lambda2 == pytest.approx(1.0)

    def test_two_node_path_weighted(self):
        assert builder("path", 2, 3.0).lambda2 == pytest.approx(6.0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="^builder needs n >= 2, got 1$"):
            builder("ring", 1)


class TestScale:
    def test_spectrum_scales_linearly(self):
        L = builder("complete", 3)
        assert L.scale(10).lambda2 == pytest.approx(30)

    def test_identity_scale(self):
        L = builder("path", 3)
        assert np.array_equal(L.scale(1.0).entries, L.entries)
        assert np.array_equal(L.scale(1.0).eigenvalues, L.eigenvalues)

    def test_composition_exact_in_spectrum(self):
        L = builder("ring", 5)
        ab = L.scale(2.0).scale(3.0)
        direct = L.scale(6.0)
        assert np.array_equal(ab.eigenvalues, direct.eigenvalues)

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError, match=r"^alpha must be positive, got 0\.0$"):
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
            L = from_edge_list(edges, n)
            assert (L.lambda2 > 0) == connected

    def test_disconnected_warning(self):
        # no warning: lambda_2 = 0 exactly is the report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = from_edge_list([(0, 1, 1.0), (2, 3, 1.0)], 4)
        assert (L.lambda2, np.count_nonzero(L.eigenvalues == 0)) == (0.0, 2)

    def test_two_weighted_components_have_zero_lambda2(self):
        # eigh puts lambda_2 of this graph at about 1e-17; it is snapped to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = from_edge_list([(0, 1, 0.3), (2, 3, 0.3), (3, 4, 0.3)], 5)
        assert L.lambda2 == 0.0

    def test_scaled_copy_does_not_warn_again(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = from_edge_list([(0, 1, 1.0), (2, 3, 1.0)], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.count_nonzero(L.scale(2.0).eigenvalues == 0) == 2

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((2, 3)), "^Laplacian must be a square matrix of order >= 1$"),
        ([[1.0, -1.0], [-0.5, 0.5]], "^Laplacian must be symmetric$"),
        ([[1.0, -0.5], [-0.5, 1.0]], "^Laplacian rows must sum to zero$"),
    ], ids=["non-square", "asymmetric", "nonzero-row-sums"])
    def test_bad_matrix_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            LaplacianMatrix(entries)

    def test_negative_eigenvalue_is_not_psd(self):
        # rows sum to zero, eigenvalues -sqrt(3), 0, sqrt(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Laplacian is not positive semidefinite$"):
                LaplacianMatrix([[-1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, 1.0]])


def _components(rng, sizes):
    """Random weighted connected components on consecutive nodes."""
    edges, base = [], 0
    for m in sizes:
        edges += [(base + i, base + i + 1, float(rng.uniform(0.1, 5.0)))
                  for i in range(m - 1)]
        edges += [(base + int(i), base + int(j), float(rng.uniform(0.1, 5.0)))
                  for i, j in rng.integers(0, m, (m, 2)) if i != j]
        base += m
    return edges, base


class TestZeroCluster:
    @pytest.mark.parametrize("sizes", [(2, 3), (4, 1, 6), (1, 1, 1, 1)],
                             ids=["two-components", "three-components", "edgeless"])
    def test_exact_zeros_and_orthonormal_eigenbasis(self, sizes):
        rng = np.random.default_rng(len(sizes))
        for _ in range(20):
            edges, n = _components(rng, sizes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                L = from_edge_list(edges, n)
            lam = L.eigenvalues
            assert np.array_equal(lam[:len(sizes)], np.zeros(len(sizes)))
            assert np.all(lam[len(sizes):] > 0)
            assert (L.lambda2, np.count_nonzero(L.eigenvalues == 0)) == (0.0, len(sizes))

    def test_connected_spectra_bitwise_equal_to_gram_schmidt(self):
        rng = np.random.default_rng(11)
        graphs = [builder(kind, n, w) for kind in ("complete", "ring", "star", "path")
                  for n in (2, 3, 7, 40) for w in (1.0, 0.37, 20.0)]
        graphs += [from_edge_list(*_components(rng, [int(rng.integers(2, 30))]))
                   for _ in range(100)]
        for L in graphs:
            want = _spectrum_before(L.entries)
            assert L.eigenvalues.tobytes() == want.tobytes()


def _spectrum_before(entries):
    """Eigenvalues of eigh with only evals[0] zeroed."""
    evals = np.linalg.eigh(entries)[0]
    evals[0] = 0.0
    return evals


class TestEdgeListFile(object):
    @pytest.mark.parametrize("text, message", [
        ("0 1\n", "^malformed edge line '0 1'$"),
        ("# no edges\n", "^empty edge list and no n= header$"),
    ], ids=["malformed-line", "empty-without-header"])
    def test_bad_file_rejected(self, tmp_path, text, message):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_edge_list(p)

    def test_parse_with_comments_and_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a triangle plus isolated node\nn=4\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
        L = read_edge_list(p)
        assert L.n == 4
        assert L.entries[0, 1] == -1.0

    def test_inferred_node_count(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 2 1.5\n1 2 0.5\n")
        L = read_edge_list(p)
        assert L.n == 3
