"""Weighted symmetric graph Laplacians with cached eigenvalues.

The eigenvalues are computed eagerly at construction and shared by every
rescaled copy; bounds and sweeps read lambda_2.  The zero cluster is snapped to
exact zeros, so lambda_2 = 0 exactly when the graph is disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_number

__all__ = [
    "LaplacianMatrix",
    "from_edge_list",
    "builder",
    "read_edge_list",
]

ZERO_CLUSTER_REL = 1e-10


def _spectrum(entries: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues with the zero cluster, every eigenvalue within
    ZERO_CLUSTER_REL lambda_max (or 1e-14) of 0, snapped to exact zeros.
    Taken from eigh, not eigvalsh, whose lambda_2 differs in the last bits."""
    evals = np.linalg.eigh(entries)[0]
    lam_max = max(float(evals[-1]), 0.0)
    evals[np.abs(evals) <= (ZERO_CLUSTER_REL * lam_max if lam_max > 0 else 1e-14)] = 0.0
    return evals


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """Symmetric PSD Laplacian with its eigenvalues cached."""

    entries: np.ndarray
    eigenvalues: np.ndarray

    def __init__(self, entries, eigenvalues=None):
        entries = np.asarray(entries, dtype=float)
        n = entries.shape[0]
        if entries.shape != (n, n) or n < 1:
            raise ValueError("Laplacian must be a square matrix of order >= 1")
        norm = np.sqrt((entries ** 2).sum())  # Frobenius norms throughout
        if norm > 0:
            if np.sqrt(((entries - entries.T) ** 2).sum()) > 1e-12 * norm:
                raise ValueError("Laplacian must be symmetric")
            if np.sqrt(((entries @ np.ones(n)) ** 2).sum()) > 1e-10 * norm:
                raise ValueError("Laplacian rows must sum to zero")
        if eigenvalues is None:
            eigenvalues = _spectrum(entries)
        if eigenvalues[0] < 0:  # a negative eigenvalue outside the zero cluster
            raise ValueError("Laplacian is not positive semidefinite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "eigenvalues", np.asarray(eigenvalues, float))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def lambda2(self) -> float:
        """Algebraic connectivity; exactly 0 for one node or a disconnected graph."""
        return float(self.eigenvalues[1]) if self.n > 1 else 0.0

    def scale(self, alpha: float) -> "LaplacianMatrix":
        """alpha * L; the spectrum scales linearly."""
        if require_number("alpha", alpha) <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return LaplacianMatrix(alpha * self.entries, alpha * self.eigenvalues)


def _check_edge(i, j, w, n: int) -> None:
    if i == j:
        raise ValueError(f"self loop at node {i}")
    edge = f"edge ({i},{j})"
    if require_number(edge + " weight", w) <= 0:
        raise ValueError(f"{edge} has weight {w}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"{edge} outside 0..{n - 1}")
    require_number(edge + " node", i, integer=True)
    require_number(edge + " node", j, integer=True)


def _assemble(i: np.ndarray, j: np.ndarray, w: np.ndarray, n: int) -> LaplacianMatrix:
    """L = sum_k w_k (e_i - e_j)(e_i - e_j)^T over checked edge arrays.
    bincount adds in edge order, so every entry, duplicate edges included, has
    the bits of a loop that adds w_k to L_ii and L_jj and subtracts it from
    L_ij and L_ji."""
    w2 = np.repeat(w, 2)
    L = np.bincount(np.stack([i * n + j, j * n + i], axis=1).ravel(), -w2, n * n)
    L[::n + 1] = np.bincount(np.stack([i, j], axis=1).ravel(), w2, n)
    return LaplacianMatrix(L.reshape(n, n))


def from_edge_list(edges, n: int) -> LaplacianMatrix:
    """Build a Laplacian from (i, j, w) triples; duplicate edges are summed."""
    edges = list(edges)
    for i, j, w in edges:
        _check_edge(i, j, w, n)
    i, j, w = np.array(edges, float).reshape(-1, 3).T
    return _assemble(i.astype(int), j.astype(int), w, n)


def builder(kind: str, n: int, weight: float = 1.0) -> LaplacianMatrix:
    """Standard topologies with uniform edge weight."""
    require_number("n", n, integer=True)
    require_number("weight", weight)
    if n < 2:
        raise ValueError(f"builder needs n >= 2, got {n}")
    if kind == "complete":
        i, j = np.triu_indices(n, 1)
    elif kind == "ring":  # n = 2 would double the edge
        i = np.arange(n if n > 2 else 1)
        j = (i + 1) % n
    elif kind == "star":
        j = np.arange(1, n)
        i = np.zeros_like(j)
    elif kind == "path":
        i = np.arange(n - 1)
        j = i + 1
    else:
        raise ValueError(f"unknown topology {kind!r}")
    _check_edge(0, 1, weight, n)  # every topology's first edge, as in from_edge_list
    return _assemble(i, j, np.full(len(i), float(weight)), n)


def read_edge_list(path) -> LaplacianMatrix:
    """Parse an edge-list file: `i j w` per line, `#` comments, optional
    `n=<count>` header; node count otherwise inferred as max index + 1."""
    edges = []
    n_declared = None
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("n="):
                n_declared = int(line[2:])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not edges and n_declared is None:
        raise ValueError("empty edge list and no n= header")
    n = n_declared if n_declared is not None else (
        max(max(i, j) for i, j, _ in edges) + 1
    )
    return from_edge_list(edges, n)
