"""Embedded deformation graph: node sampling, edges, influence weights.

Nodes are a geodesically separated subset of the source points; every node
within radius ``R`` of a source point influences it with the compactly
supported weight ``(1 - D^2/R^2)^3``, normalized so the weights of each point
sum to one.  Two nodes are joined by an edge when they influence a common
point, so one radius decides both, and each node's geodesic field is marched
only to R.

The graph carries the linear map of its deformation.  With the node
transforms stacked into the (4r, 3) state X (block rows ``[A_j^T; t_j^T]``),
every deformed point is a row of ``F X + P`` and every edge residual a row of
``B X - Y``.  It also carries the plan that fills the surrogate's quadratic
form ``F^T W_a F + alpha B^T W_r B`` into a fixed symmetric band, in a
node order chosen once per graph (:class:`H0Plan`), since only the diagonal
weights change between MM steps; F, B and the plan are built in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, triu
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import DegenerateInputError, InvalidInputError, check_number
from .geodesic import geodesic_from
from .mesh import Surface, mean_edge_length, save_ply

DEFAULT_RADIUS_FACTOR = 5.0
SAMPLERS = ("pca", "farthest")


# a node pair's 4x4 block from its ten moments of [d; 1] [d; 1]^T, in the
# order xx, xy, xz, yy, yz, zz, x, y, z, 1
_BLOCK_MOMENTS = np.array([0, 1, 2, 6, 1, 3, 4, 7, 2, 4, 5, 8, 6, 7, 8, 9])
# (row, column) of each entry of a 4x4 block, and of the lower triangle of a
# 5x5 one
_A16, _B16 = np.divmod(np.arange(16), 4)
_A15, _B15 = np.tril_indices(5)


@dataclass(frozen=True)
class BandMatrix:
    """A symmetric (n, n) matrix in LAPACK's lower band storage, its rows and
    columns taken in the order ``rows``: ``band[p - q, q]`` holds entry
    ``(rows[p], rows[q])`` for ``0 <= p - q <= bw``."""

    band: np.ndarray    # (bw + 1, n) Fortran-ordered
    rows: np.ndarray    # (n,) the row of the matrix at each band position

    def toarray(self):
        """The dense (n, n) matrix."""
        n = self.band.shape[1]
        dense = np.zeros((n, n))
        for d, diagonal in enumerate(self.band):
            p, q = self.rows[d:], self.rows[:n - d]
            dense[p, q] = dense[q, p] = diagonal[:n - d]
        return dense


@dataclass(frozen=True)
class H0Plan:
    """How ``F^T diag(wa) F + B^T diag(wr) B`` fills the graph's fixed band;
    the surrogate's Hessian ``2 M`` is of this form.

    Row i of F is ``w_ij [v_i - p_j, 1]`` on node j's four columns, so block
    (j, l) of ``F^T diag(wa) F`` is ``sum_i wa_i w_ij w_il [d; 1] [d + p_j - p_l; 1]^T``
    with ``d = v_i - p_j``: ten weighted moments of the offsets d, one sparse
    product ``K @ monomials`` for every node pair j <= l that shares a point,
    then a shift by ``p_j - p_l``.  Taking d from the point's own node keeps
    the moments free of cancellation wherever the graph lies.  Each edge row
    of B has five nonzeros and adds the 15 distinct products of them.

    H0 is nonzero only in the 4x4 blocks of node pairs that share a point or
    an edge, and on the diagonal.  The nodes are taken in reverse
    Cuthill-McKee order of that pattern, each node's four rows together,
    which narrows it to a band of ``bw`` subdiagonals.  ``slots`` sends every
    term, pair blocks then edge products, to its entry of the lower band
    storage (:class:`BandMatrix`), an entry of the strict upper triangle to
    its mirror; the upper half of a diagonal block, whose mirror is a term
    too, goes to the one spare entry past the end.  The diagonal H0 adds to
    ``2 M`` joins only its factor (:func:`nrreg.solver.factor_h0`)."""

    rows: np.ndarray            # (4r,) state row at each band position
    K: csr_matrix               # (p, m) w_ij w_il per node pair and influence entry (i, j)
    point: np.ndarray           # (m,) source point i of each influence entry
    offsets: np.ndarray         # (3, m) v_i - p_j of each influence entry, by coordinate
    shift: np.ndarray           # (p, 3) p_j - p_l of each node pair
    edge_products: np.ndarray   # (2e, 15) distinct products of each edge row's five entries
    slots: np.ndarray           # band storage entry of each term
    width: int                  # bw + 1, the rows of the band storage

    def assemble(self, wa, wr):
        """The (4r, 4r) :class:`BandMatrix` ``F^T diag(wa) F + B^T diag(wr) B``."""
        # the ten monomials of [d; 1] [d; 1]^T weighted by wa of the point,
        # one contiguous row each; K turns them into every node pair's moments
        d = self.offsets
        mono = np.empty((10, d.shape[1]))
        q = np.take(wa, self.point, out=mono[9])
        np.multiply(q, d, out=mono[6:9])
        for row, (a, b) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
            np.multiply(mono[6 + a], d[b], out=mono[row])
        blocks = (self.K @ mono.T)[:, _BLOCK_MOMENTS].reshape(-1, 4, 4)
        blocks[:, :, :3] += blocks[:, :, 3:] * self.shift[:, None, :]
        terms = np.concatenate([blocks.ravel(), (wr[:, None] * self.edge_products).ravel()])
        n = len(self.rows)
        band = np.bincount(self.slots, terms, minlength=self.width * n + 1)[:-1]
        return BandMatrix(band.reshape((self.width, n), order="F"), self.rows)


@dataclass
class DeformationGraph:
    """Sampled nodes, the per-source-point influence weights, and the linear
    map they define: F, B and the H0 plan, built in one pass over the influence
    entries in (point, node) order, whatever their storage order, and the edges."""

    node_indices: np.ndarray        # (r,) indices into the source vertices
    node_positions: np.ndarray      # (r, 3)
    node_edges: np.ndarray          # (e, 2) undirected pairs of node indices
    radius: float
    influence: csr_matrix           # (n, r) normalized weights w_ij
    source_positions: np.ndarray    # (n, 3) the points the weights refer to
    # always empty (every point has a node below R); perfbench's counter reads it
    fallback_points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    # F and B are CSC views of the CSR transposes the gradient multiplies by
    F: csc_matrix = field(init=False, repr=False)   # (n, 4r)
    FT: csr_matrix = field(init=False, repr=False)  # (4r, n)
    P: np.ndarray = field(init=False, repr=False)   # (n, 3)
    B: csc_matrix = field(init=False, repr=False)   # (2e, 4r), one row per directed edge
    BT: csr_matrix = field(init=False, repr=False)  # (4r, 2e)
    Y: np.ndarray = field(init=False, repr=False)   # (2e, 3)
    h0_plan: H0Plan = field(init=False, repr=False)

    def __post_init__(self):
        r, Pn = self.n_nodes, self.node_positions
        # the influence entries (i, j, w_ij) in (point, node) order
        W = self.influence.tocoo()
        order = np.lexsort((W.col, W.row))
        point = W.row[order].astype(np.int32)
        node = W.col[order].astype(np.int32)
        w = W.data[order]
        offsets = self.source_positions[point] - Pn[node]
        # row i of F holds w_ij [v_i - p_j, 1] on the four state columns of node j
        vals = np.column_stack([offsets, np.ones(len(w))]) * w[:, None]
        cols = 4 * node[:, None] + np.arange(4)
        self.FT = csr_matrix((vals.ravel(), (cols.ravel(), np.repeat(point, 4))),
                             shape=(4 * r, self.n_points))
        self.F = self.FT.T
        self.P = np.asarray(self.influence @ Pn)
        # D_ij = A_j (p_i - p_j) + p_j + t_j - (p_i + t_i): row k of B (edge (i, j))
        # is v5 = [p_i - p_j, 1] on node j's columns, -1 on node i's translation column
        i, j = directed_edges(self).T
        self.Y = Pn[i] - Pn[j]
        v5 = np.column_stack([self.Y, np.ones(len(i)), -np.ones(len(i))])
        cols = np.column_stack([4 * j[:, None] + np.arange(4), 4 * i + 3])
        self.BT = csr_matrix((v5.ravel(), (cols.ravel(), np.repeat(np.arange(len(i)), 5))),
                             shape=(4 * r, len(i)))
        self.B = self.BT.T

        # each influence entry pairs with itself and every later entry of its
        # point, whose node is higher
        m = len(point)
        later = (np.searchsorted(point, point, side="right") - np.arange(m)).astype(np.int32)
        first = np.repeat(np.arange(m, dtype=np.int32), later)
        start = np.repeat((np.cumsum(later) - later).astype(np.int32), later)
        second = first + (np.arange(len(first), dtype=np.int32) - start)
        keys, pair = np.unique(node[first].astype(np.int64) * r + node[second],
                               return_inverse=True)
        K = csr_matrix((w[first] * w[second], (pair.astype(np.int32), first)),
                       shape=(len(keys), m))
        pj, pl = keys // r, keys % r

        # the pattern: the node pairs that share a point or an edge, and the
        # diagonal; its reverse Cuthill-McKee order narrows H0 to a band
        nodes = np.arange(r)
        u, v = np.divmod(np.unique(np.concatenate([keys, pl * r + pj, i * r + j,
                                                   nodes * (r + 1)])), r)
        # scipy's RCM fails on an empty graph, which register rejects
        by_rank = reverse_cuthill_mckee(csr_matrix(
            (np.ones(len(u)), v, np.searchsorted(u, np.arange(r + 1))), shape=(r, r)),
            symmetric_mode=True) if r else nodes
        rank = np.argsort(by_rank)
        width = 4 * int(np.abs(rank[u] - rank[v]).max(initial=0)) + 4

        def slot(J, L, a, b):
            """Where entry (4J + a, 4L + b) of H0, or its mirror, is stored."""
            p, q = 4 * rank[J] + a, 4 * rank[L] + b
            return (np.abs(p - q) + width * np.minimum(p, q)).astype(np.int32)

        i, j = i[:, None], j[:, None]
        self.h0_plan = H0Plan(
            rows=(4 * by_rank[:, None] + np.arange(4)).ravel(),
            K=K, point=point, offsets=offsets.T.copy(),
            shift=Pn[pj] - Pn[pl], edge_products=v5[:, _A15] * v5[:, _B15],
            slots=np.concatenate([
                np.where((pj == pl)[:, None] & (_A16 < _B16), width * 4 * r,
                         slot(pj[:, None], pl[:, None], _A16, _B16)).ravel(),
                slot(np.where(_A15 < 4, j, i), np.where(_B15 < 4, j, i),
                     np.minimum(_A15, 3), np.minimum(_B15, 3)).ravel()]),
            width=width)

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


def sample_nodes_pca(s: Surface, R):
    """Scan points sorted by first-principal-axis projection; keep a point
    iff its geodesic distance to all kept points is at least ``R``.

    Returns the nodes and their fields: the (vertex indices, distances) of
    the points below R from each node, the points it influences, from one
    march capped at R."""
    check_number("R", R, lambda v: v > 0, "positive")
    n = s.n_vertices
    if n == 0:
        raise DegenerateInputError("empty surface")
    nearest = np.full(n, np.inf)
    nodes, fields = [], []
    for i in np.argsort(s.vertices @ principal_axis(s.vertices), kind="stable"):
        if nearest[i] >= R:
            f = geodesic_from(s, int(i), cap=R)
            inside = f.distances < R
            idx, d = f.indices[inside], f.distances[inside]
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
    than the PCA scan at the same ``R``.  Returns the nodes and their fields,
    cut to R as :func:`sample_nodes_pca` cuts them.

    Every node f is the argmax of the running minimum ``nearest``, so no
    vertex farther than ``nearest[f]`` from f can lower its minimum, and the
    fields are read only to R: f's field is capped at ``max(nearest[f], R)``,
    which leaves every distance below the cap unchanged.  A point no node
    reaches is at +inf, the farthest, so each component gets a node, marched
    uncapped; the first node is vertex 0."""
    check_number("R", R, lambda v: v > 0, "positive")
    if s.n_vertices == 0:
        raise DegenerateInputError("empty surface")
    nearest = np.full(s.n_vertices, np.inf)
    nodes, fields = [], []
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] <= 0.5 * R:
            return np.array(nodes, dtype=np.int64), fields
        f = geodesic_from(s, far, cap=max(float(nearest[far]), R))
        nearest[f.indices] = np.minimum(nearest[f.indices], f.distances)
        inside = f.distances < R
        nodes.append(far)
        fields.append((f.indices[inside], f.distances[inside]))


def influence_weights(n, fields, R):
    """The (n, r) influence matrix from the node fields of a sampler: the
    weights ``(1 - D^2/R^2)^3``, normalized per point.  Every point has a
    node, since the PCA scan makes a node of every point not below R from an
    earlier node, and farthest-point sampling covers every point to R/2."""
    node = np.repeat(np.arange(len(fields)), [len(idx) for idx, _ in fields])
    vert = np.concatenate([idx for idx, _ in fields])
    raw = (1.0 - (np.concatenate([d for _, d in fields]) / R) ** 2) ** 3
    # per-point sums accumulate in node order, as a dense column sum would
    sums = np.bincount(vert, weights=raw, minlength=n)
    return csr_matrix((raw / sums[vert], (vert, node)), shape=(n, len(fields)))


def build_graph(s: Surface, R=None, sampler="pca"):
    """Construct the full deformation graph for a surface.

    ``R`` defaults to 5x the mean source edge length.  ``sampler`` selects
    the PCA-ordered scan or farthest-point sampling.  Each node's geodesic
    field is marched once, to R, and serves sampling and influence; nodes
    are joined by an edge when they influence a common point.
    """
    if R is None:
        R = DEFAULT_RADIUS_FACTOR * mean_edge_length(s)
    if sampler == "pca":
        nodes, fields = sample_nodes_pca(s, R)
    elif sampler == "farthest":
        nodes, fields = sample_nodes_farthest(s, R)
    else:
        raise InvalidInputError(f"unknown sampler {sampler!r}")

    weights = influence_weights(s.n_vertices, fields, R)

    # nodes j < k are joined when they share a point of positive weight; a
    # sparse product leaves its indices in no particular order
    shared = triu(weights.T @ weights, 1).tocoo()
    order = np.lexsort((shared.col, shared.row))
    edges = np.column_stack([shared.row, shared.col])[order].astype(np.int64)

    return DeformationGraph(
        node_indices=nodes,
        node_positions=s.vertices[nodes],
        node_edges=edges,
        radius=float(R),
        influence=weights,
        source_positions=s.vertices,
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
