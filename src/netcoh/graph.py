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
        norm = np.linalg.norm(entries)
        if norm > 0:
            if np.linalg.norm(entries - entries.T) > 1e-12 * norm:
                raise ValueError("Laplacian must be symmetric")
            if np.linalg.norm(entries @ np.ones(n)) > 1e-10 * norm:
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


def from_edge_list(edges, n: int) -> LaplacianMatrix:
    """Build a Laplacian from (i, j, w) triples; duplicate edges are summed."""
    L = np.zeros((n, n))
    for i, j, w in edges:
        if i == j:
            raise ValueError(f"self loop at node {i}")
        if require_number(f"edge ({i},{j}) weight", w) <= 0:
            raise ValueError(f"edge ({i},{j}) has weight {w}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside 0..{n - 1}")
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return LaplacianMatrix(L)


def builder(kind: str, n: int, weight: float = 1.0) -> LaplacianMatrix:
    """Standard topologies with uniform edge weight."""
    require_number("n", n, integer=True)
    require_number("weight", weight)
    if n < 2:
        raise ValueError(f"builder needs n >= 2, got {n}")
    if kind == "complete":
        edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    elif kind == "ring":
        edges = [(i, (i + 1) % n, weight) for i in range(n)]
        if n == 2:  # avoid the doubled edge
            edges = [(0, 1, weight)]
    elif kind == "star":
        edges = [(0, i, weight) for i in range(1, n)]
    elif kind == "path":
        edges = [(i, i + 1, weight) for i in range(n - 1)]
    else:
        raise ValueError(f"unknown topology {kind!r}")
    return from_edge_list(edges, n)


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
