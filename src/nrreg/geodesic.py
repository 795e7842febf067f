"""On-surface geodesic distances.

Triangle meshes use the fast marching method with the classic planar-wavefront
triangle update; every update is clamped from above by the corresponding edge
(Dijkstra) update, so fast-marching values never exceed edge-graph distances.
Surfaces without faces fall back to Dijkstra, either on their explicit edges
or on a k-nearest-neighbor graph for raw point clouds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import InvalidInputError
from .mesh import Surface, surface_edges


@dataclass
class GeodesicField:
    """Distances from one seed vertex; entries beyond ``capped_at`` are +inf."""

    source_vertex: int
    distances: np.ndarray
    capped_at: float | None = None


def _edge_graph(points, edges):
    w = np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)
    n = len(points)
    m = coo_matrix((np.concatenate([w, w]),
                    (np.concatenate([edges[:, 0], edges[:, 1]]),
                     np.concatenate([edges[:, 1], edges[:, 0]]))),
                   shape=(n, n))
    return m.tocsr()


def _dijkstra(points, edges, seeds, cap):
    graph = _edge_graph(points, np.asarray(edges, dtype=np.int64))
    limit = np.inf if cap is None else cap
    d = _csgraph_dijkstra(graph, directed=False, indices=list(seeds),
                          limit=limit, min_only=True)
    if cap is not None:
        d = np.where(d > cap, np.inf, d)
    return np.asarray(d, dtype=np.float64)


def _triangle_update(dc_a, dc_b, p_c, p_a, p_b):
    """Planar-wavefront arrival time at ``p_c`` given times at ``p_a``/``p_b``.

    Returns +inf when the update is not upwind-admissible (the caller then
    falls back to edge updates).
    """
    if dc_b < dc_a:
        dc_a, dc_b = dc_b, dc_a
        p_a, p_b = p_b, p_a
    ca = p_a - p_c
    cb = p_b - p_c
    b_len = math.sqrt(float(ca @ ca))
    a_len = math.sqrt(float(cb @ cb))
    if a_len == 0.0 or b_len == 0.0:
        return math.inf
    cos_t = float(ca @ cb) / (a_len * b_len)
    if cos_t <= 0.0:            # obtuse at the update vertex: edge update only
        return math.inf
    cos_t = min(cos_t, 1.0)
    sin2 = 1.0 - cos_t * cos_t
    u = dc_b - dc_a
    aa = a_len * a_len + b_len * b_len - 2.0 * a_len * b_len * cos_t
    bb = 2.0 * b_len * u * (a_len * cos_t - b_len)
    cc = b_len * b_len * (u * u - a_len * a_len * sin2)
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0 or aa <= 0.0:
        return math.inf
    t = (-bb + math.sqrt(disc)) / (2.0 * aa)
    if t <= u:
        return math.inf
    q = b_len * (t - u) / t
    if not (a_len * cos_t < q < a_len / cos_t):
        return math.inf
    return dc_a + t


def _fast_marching(points, faces, seed, cap):
    n = len(points)
    # vertex -> incident triangles
    tri_of = [[] for _ in range(n)]
    for ti, f in enumerate(faces):
        for v in f:
            tri_of[v].append(ti)
    dist = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    dist[seed] = 0.0
    heap = [(0.0, seed)]
    limit = math.inf if cap is None else cap
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d > dist[v]:
            continue
        if d > limit:
            break
        done[v] = True
        for ti in tri_of[v]:
            f = faces[ti]
            others = [w for w in f if w != v]
            if len(others) != 2:
                continue  # degenerate triangle
            for c in others:
                if done[c]:
                    continue
                o = others[0] if c == others[1] else others[1]
                # edge update from the newly accepted vertex
                cand = d + float(np.linalg.norm(points[c] - points[v]))
                if done[o] and np.isfinite(dist[o]):
                    tu = _triangle_update(d, dist[o], points[c], points[v], points[o])
                    if tu < cand:
                        cand = tu
                if cand < dist[c]:
                    dist[c] = cand
                    heapq.heappush(heap, (cand, c))
    if cap is not None:
        dist = np.where(dist > cap, np.inf, dist)
    return dist


def geodesic_from(s: Surface, seed, cap=None, method="auto"):
    """Single-source geodesic distances from ``seed``.

    ``method`` is ``auto`` (fast marching on meshes, Dijkstra otherwise),
    ``fmm``, or ``dijkstra``.  With ``cap`` given, distances beyond the cap
    are reported as +inf.  Disconnected vertices are +inf, not an error.
    """
    n = s.n_vertices
    if not (0 <= seed < n):
        raise InvalidInputError(f"seed {seed} out of range")
    has_faces = s.faces is not None and len(s.faces) > 0
    if method == "auto":
        method = "fmm" if has_faces else "dijkstra"
    if method == "fmm":
        if not has_faces:
            raise InvalidInputError("fast marching requires triangle faces")
        d = _fast_marching(s.vertices, s.faces, seed, cap)
    elif method == "dijkstra":
        d = _dijkstra(s.vertices, surface_edges(s), [seed], cap)
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    return GeodesicField(seed, d, cap)


def multi_source_geodesic(s: Surface, seeds, cap=None):
    """Minimum geodesic distance from every vertex to any seed."""
    seeds = list(seeds)
    if not seeds:
        raise InvalidInputError("seed set must be non-empty")
    return reduce(np.minimum, (geodesic_from(s, seed, cap=cap).distances for seed in seeds))


def nearest_seed_labels(s: Surface, seeds):
    """Geodesically nearest seed for every vertex (distance ties: first seed).

    Runs one single-source field per seed; vertices unreachable from every
    seed get label -1.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidInputError("seed set must be non-empty")
    best = np.full(s.n_vertices, np.inf)
    label = np.full(s.n_vertices, -1, dtype=np.int64)
    for si, seed in enumerate(seeds):
        d = geodesic_from(s, seed).distances
        better = d < best
        best[better] = d[better]
        label[better] = si
    return label, best
