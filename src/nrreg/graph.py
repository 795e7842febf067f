"""Embedded deformation graph: node sampling, edges, influence weights.

Nodes are a geodesically separated subset of the source points; every node
within radius ``R`` of a source point influences it with the compactly
supported weight ``(1 - D^2/R^2)^3``, normalized so the weights of each point
sum to one.

The graph carries the linear map of its deformation.  With the node
transforms stacked into the (4r, 3) state X (block rows ``[A_j^T; t_j^T]``),
every deformed point is a row of ``F X + P`` and every edge residual a row of
``B X - Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateInputError, InvalidInputError
from .geodesic import geodesic_from
from .mesh import Surface, mean_edge_length, save_ply

DEFAULT_RADIUS_FACTOR = 5.0
SAMPLERS = ("pca", "farthest")


@dataclass
class DeformationGraph:
    """Sampled nodes, the per-source-point influence weights, and the linear
    map they define, built once from them."""

    node_indices: np.ndarray        # (r,) indices into the source vertices
    node_positions: np.ndarray      # (r, 3)
    node_edges: np.ndarray          # (e, 2) undirected pairs of node indices
    radius: float
    influence: csr_matrix           # (n, r) normalized weights w_ij
    source_positions: np.ndarray    # (n, 3) the points the weights refer to
    fallback_points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    F: csr_matrix = field(init=False, repr=False)   # (n, 4r)
    P: np.ndarray = field(init=False, repr=False)   # (n, 3)
    B: csr_matrix = field(init=False, repr=False)   # (2e, 4r), one row per directed edge
    Y: np.ndarray = field(init=False, repr=False)   # (2e, 3)

    def __post_init__(self):
        shape = (self.n_points, 4 * self.n_nodes)
        Pn = self.node_positions
        W = self.influence.tocoo()
        # row i of F holds w_ij [v_i - p_j, 1] on the four state columns of node j
        offsets = self.source_positions[W.row] - Pn[W.col]
        vals = np.column_stack([offsets, np.ones(W.nnz)]) * W.data[:, None]
        cols = 4 * W.col[:, None] + np.arange(4)
        self.F = csr_matrix((vals.ravel(), (np.repeat(W.row, 4), cols.ravel())), shape=shape)
        self.P = np.asarray(self.influence @ Pn)
        # D_ij = A_j (p_i - p_j) + p_j + t_j - (p_i + t_i): [p_i - p_j, 1] on
        # node j's columns and -1 on node i's translation column
        i, j = directed_edges(self).T
        k, ones = np.arange(len(i)), np.ones(len(i))
        self.Y = Pn[i] - Pn[j]
        vals = np.concatenate([np.column_stack([self.Y, ones]).ravel(), -ones])
        rows = np.concatenate([np.repeat(k, 4), k])
        cols = np.concatenate([(4 * j[:, None] + np.arange(4)).ravel(), 4 * i + 3])
        self.B = csr_matrix((vals, (rows, cols)), shape=(len(k), shape[1]))

    @property
    def n_nodes(self):
        return len(self.node_indices)

    @property
    def n_points(self):
        return self.influence.shape[0]


def directed_edges(g):
    """Both orientations of every undirected graph edge, as an (2e, 2) array
    of (i, j) pairs; row order is (i, j) then (j, i) per edge."""
    e = np.asarray(g.node_edges, dtype=np.int64).reshape(-1, 2)
    return np.concatenate([e, e[:, ::-1]])


def principal_axis(points):
    """First principal axis of the point set, sign-fixed for reproducibility.

    The axis belongs to the largest eigenvalue of the covariance of the
    mean-centered points; its largest-magnitude component is made positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / max(len(pts), 1)
    vals, vecs = np.linalg.eigh(cov)
    axis = vecs[:, np.argmax(vals)]
    k = np.argmax(np.abs(axis))
    if axis[k] < 0:
        axis = -axis
    return axis


def node_field(distances, R):
    """A node's geodesic field as the (vertex indices, distances) of its
    entries within 2R: influence needs distances below R, node edges below
    2R."""
    idx = np.flatnonzero(distances <= 2.0 * R)
    return idx, distances[idx]


def sample_nodes_pca(s: Surface, R):
    """Scan points sorted by first-principal-axis projection; keep a point
    iff its geodesic distance to all kept points is at least ``R``.

    Returns the nodes and their fields (see :func:`node_field`).  Each field
    is marched once, capped at 2R; the cap leaves every distance at or below
    it unchanged, so the test against ``R`` is that of a cap-R scan."""
    if R <= 0:
        raise InvalidInputError("R must be positive")
    n = s.n_vertices
    if n == 0:
        raise DegenerateInputError("empty surface")
    nearest = np.full(n, np.inf)
    nodes, fields = [], []
    for i in np.argsort(s.vertices @ principal_axis(s.vertices), kind="stable"):
        if nearest[i] >= R:
            idx, d = node_field(geodesic_from(s, int(i), cap=2.0 * R).distances, R)
            nearest[idx] = np.minimum(nearest[idx], d)
            nodes.append(int(i))
            fields.append((idx, d))
    return np.array(nodes, dtype=np.int64), fields


def sample_nodes_farthest(s: Surface, R):
    """Start from vertex 0; repeatedly add the point maximizing the minimum
    geodesic distance to the current nodes, until every point lies within
    ``R/2`` of a node.

    The half-radius coverage target is the conventional farthest-point
    stopping rule for deformation-graph nodes (each point then has several
    nodes inside its influence radius ``R``); it produces a denser node set
    than the PCA scan at the same ``R``.  Returns the nodes and their fields
    (see :func:`node_field`); the farthest-point test needs the uncapped
    fields."""
    if R <= 0:
        raise InvalidInputError("R must be positive")
    if s.n_vertices == 0:
        raise DegenerateInputError("empty surface")
    nearest = np.full(s.n_vertices, np.inf)
    nodes, fields = [], []
    far = 0
    while True:
        d = geodesic_from(s, far).distances
        np.minimum(nearest, d, out=nearest)
        nodes.append(far)
        fields.append(node_field(d, R))
        finite = np.where(np.isfinite(nearest), nearest, -1.0)
        far = int(np.argmax(finite))
        if finite[far] <= 0.5 * R:
            return np.array(nodes, dtype=np.int64), fields


def _stack(fields):
    """Flatten per-node fields into (node, vertex, distance) arrays, node-major."""
    node = np.repeat(np.arange(len(fields)), [len(idx) for idx, _ in fields])
    return (node, np.concatenate([idx for idx, _ in fields]),
            np.concatenate([d for _, d in fields]))


def influence_weights(s: Surface, node_indices, fields, R):
    """Per-point influence sets and normalized weights from the node fields.

    Points farther than ``R`` from every node get full weight on their
    Euclidean nearest node; those fallbacks are reported separately.  In a
    graph the samplers built, no node reaches a fallback point: the PCA
    scan makes a node of every point not within ``R`` of an earlier node,
    and farthest-point sampling stops only with every reachable point
    within ``R/2`` of a node."""
    n = s.n_vertices
    node, vert, dist = _stack(fields)
    inside = dist < R
    node, vert = node[inside], vert[inside]
    raw = (1.0 - (dist[inside] / R) ** 2) ** 3

    fallback = np.flatnonzero(np.bincount(vert, minlength=n) == 0)
    if len(fallback) > 0:
        extra = [np.argmin(np.linalg.norm(s.vertices[node_indices] - s.vertices[v], axis=1))
                 for v in fallback]
        node = np.concatenate([node, extra])
        vert = np.concatenate([vert, fallback])
        raw = np.concatenate([raw, np.ones(len(fallback))])

    # per-point sums accumulate in node order, as a dense column sum would
    sums = np.bincount(vert, weights=raw, minlength=n)
    mat = csr_matrix((raw / sums[vert], (vert, node)), shape=(n, len(node_indices)))
    return mat, fallback


def build_graph(s: Surface, R=None, sampler="pca"):
    """Construct the full deformation graph for a surface.

    ``R`` defaults to 5x the mean source edge length.  ``sampler`` selects
    the PCA-ordered scan or farthest-point sampling.  Each node's geodesic
    field is computed once and serves sampling, influence and edges.
    """
    if R is None:
        R = DEFAULT_RADIUS_FACTOR * mean_edge_length(s)
    if R <= 0:
        raise InvalidInputError("R must be positive")
    if sampler == "pca":
        nodes, fields = sample_nodes_pca(s, R)
    elif sampler == "farthest":
        nodes, fields = sample_nodes_farthest(s, R)
    else:
        raise InvalidInputError(f"unknown sampler {sampler!r}")

    weights, fallback = influence_weights(s, nodes, fields, R)

    # Node-to-node edges connect overlapping influence regions (geodesic
    # distance < 2R).  Sampling keeps nodes at least R apart, so a sub-R
    # edge rule would always produce an empty edge set.  Fast-marching
    # distances are not symmetric: edge (j, k), j < k, is decided by node
    # j's field at node k.
    node_of = np.full(s.n_vertices, -1)
    node_of[nodes] = np.arange(len(nodes))
    j, vert, dist = _stack(fields)
    k = node_of[vert]
    near = (k > j) & (dist < 2.0 * R)
    edges = np.unique(np.column_stack([j[near], k[near]]), axis=0)

    return DeformationGraph(
        node_indices=nodes,
        node_positions=s.vertices[nodes].copy(),
        node_edges=edges,
        radius=float(R),
        influence=weights,
        source_positions=s.vertices.copy(),
        fallback_points=fallback,
    )


def transform_points(g: DeformationGraph, X):
    """Deformed positions of the source points the graph was built on.

    ``X`` is the stacked (4r, 3) state.  Point i moves to
    ``sum_j w_ij (A_j (v_i - p_j) + p_j + t_j)``, which is row i of
    ``F X + P``.
    """
    return g.F @ X + g.P


def dump_graph_ply(g: DeformationGraph, path):
    """Debug dump: nodes as PLY points plus an edge-list sidecar."""
    save_ply(Surface(g.node_positions), path)
    with open(str(path) + ".edges.txt", "w", encoding="utf-8") as fh:
        for a, b in g.node_edges:
            fh.write(f"{a} {b}\n")
