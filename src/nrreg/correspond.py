"""Closest-point queries, and rigid ICP with its own pair rejection.

Closest points are exact, queried on the target surface's own k-d tree
(:func:`nrreg.mesh._kd_tree`): ties between equidistant target points
resolve to the lowest index.  Hard distance/normal rejection is used only
during the rigid initialization; the robust kernel takes over during
non-rigid solves.

Queries repeat with small moves (every outer iteration, every ICP iteration),
so a query may be answered from the last one on the same tree.  If the last
query point ``p`` had nearest target point ``u`` and every other target point
lay at least ``m`` from it, every other point lies at least ``m - |q - p|``
from the new query point ``q`` (triangle inequality); when ``|q - u|`` is
below that, ``u`` is still the unique nearest point and the tree is not asked.
The bound carries an allowance for rounding, so a certified row is returned
bit for bit as the tree returns it; ties are never certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .energy import pack_state
from .errors import InitializationError, InvalidInputError, check_number
from .mesh import Surface, _kd_tree

DEFAULT_EPS_D = 0.3
DEFAULT_THETA_DEG = 60.0
DEFAULT_ICP_ITERS = 15
# a distance whose squares underflow is off by at most this much
ROUNDING_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


@dataclass
class CorrespondenceSet:
    """Per-query nearest target point.

    A set made by :func:`find_correspondences` also keeps what certifies its
    answers for the next query on the same target: the query points, a lower
    bound ``margin`` on each query point's distance to every target point
    but its nearest, and the k-d tree that answered.  A set built by hand
    has none of them and is never reused."""

    indices: np.ndarray      # (n,) target index rho(i)
    positions: np.ndarray    # (n, 3) u_rho(i)
    distances: np.ndarray    # (n,)
    queries: np.ndarray | None = None    # (n, 3) the query points
    margin: np.ndarray | None = None     # (n,) distance bound to the other points
    tree: cKDTree | None = None          # the target's k-d tree that answered


def find_correspondences(queries, target: Surface, previous: CorrespondenceSet | None = None):
    """Exact closest target point per query, with no pair rejected (rigid
    ICP rejects its own pairs).  An empty target, and queries that are not
    an (m, 3) array of finite points, raise ``InvalidInputError``.

    ``previous`` is the last set found on the target's k-d tree for as many
    queries, row for row.  A row whose old nearest point is certified still
    nearest (see the module docstring) keeps it without a tree query; every
    other row is queried.  The result is bit for bit the one found without
    ``previous``, which is ignored when another tree answered it (another
    surface's, even over equal points; a :func:`~nrreg.mesh.compute_normals`
    copy shares its surface's) or it has another number of rows."""
    if target.n_vertices == 0:
        raise InvalidInputError("cannot index an empty point set")
    queries = np.array(queries, dtype=np.float64)   # a copy: the set keeps it
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise InvalidInputError(f"queries must be an (m, 3) array, got shape {queries.shape}")
    tree = _kd_tree(target)
    if previous is None or previous.tree is not tree or len(previous.indices) != len(queries):
        idx, dist, margin = _nearest(target, queries)
    else:
        idx, dist, margin = _certified_query(target, queries, previous)
    return CorrespondenceSet(idx, target.vertices[idx], dist, queries, margin, tree)


def _nearest(target: Surface, queries):
    """Nearest target index and distance per query, equidistant ties giving
    the lowest index, and each query's second-nearest distance: a lower
    bound on its distance to every target point but the nearest, 0 where
    there is none (one target point) or it is beyond the float range."""
    tree = _kd_tree(target)
    k = min(2, target.n_vertices)
    try:
        d, idx = tree.query(queries, k=k)
    except ValueError:      # the tree refuses a NaN or infinite query
        raise InvalidInputError("query points must be finite") from None
    if k == 1:
        return idx.ravel().astype(np.int64), d.ravel(), np.zeros(len(d))
    dist = d[:, 0].copy()
    best = idx[:, 0].copy()
    tied = d[:, 0] == d[:, 1]
    for q in np.where(tied)[0]:
        cands = np.array(tree.query_ball_point(
            queries[q], dist[q] * (1 + 1e-12) + 1e-300), dtype=np.int64)
        # the tree's own distance formula: a dot product can round a tied
        # candidate above dist[q] and drop it
        at_min = cands[_distances(target.vertices[cands] - queries[q]) <= dist[q]]
        best[q] = at_min.min(initial=best[q])
    second = d[:, 1]
    return best.astype(np.int64), dist, np.where(np.isfinite(second), second, 0.0)


def _distances(r):
    """Row norms of (n, 3) ``r`` summed in the order, and so to the bit, of
    the tree's own distances (an ``einsum`` dot is not)."""
    return np.sqrt(r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2])


def _certified_query(target, queries, previous):
    """Nearest point per query, keeping ``previous``'s wherever its margin,
    less the query's step, still exceeds the distance to it.  The step is
    taken off with an allowance of 8 eps of (margin + step) for the relative
    rounding of the three distances involved, plus ``ROUNDING_FLOOR`` for
    squares that underflow; the comparison adds 4 eps more.  So the margin
    stays below every other point's distance as computed, and a certified
    point is the strictly nearest one, as the tree finds it.  A non-finite
    step or distance fails the certificate."""
    eps = np.finfo(np.float64).eps
    idx = previous.indices.copy()
    with np.errstate(over="ignore"):     # squares beyond the float range read inf
        step = _distances(queries - previous.queries)
        margin = previous.margin - step - (8 * eps * (previous.margin + step)
                                           + ROUNDING_FLOOR)
        dist = _distances(queries - target.vertices[idx])
        miss = ~(dist * (1 + 4 * eps) < margin)
    if miss.any():
        idx[miss], dist[miss], margin[miss] = _nearest(target, queries[miss])
    return idx, dist, margin


@dataclass
class RigidTransform:
    rotation: np.ndarray     # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def apply(self, points):
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform"):
        """self after other: x -> self(other(x))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    @staticmethod
    def identity():
        return RigidTransform(np.eye(3), np.zeros(3))


def best_rigid(src_pts, dst_pts):
    """Closed-form least-squares rigid transform (SVD, det-corrected)."""
    src_pts = np.asarray(src_pts, dtype=np.float64)
    dst_pts = np.asarray(dst_pts, dtype=np.float64)
    cs = src_pts.mean(axis=0)
    cd = dst_pts.mean(axis=0)
    H = (src_pts - cs).T @ (dst_pts - cd)
    U, _, Vt = np.linalg.svd(H)
    S = np.eye(3)
    if np.linalg.det(Vt.T @ U.T) < 0:
        S[2, 2] = -1.0
    Rm = Vt.T @ S @ U.T
    return RigidTransform(Rm, cd - Rm @ cs)


@dataclass
class RigidIcpResult:
    """What :func:`rigid_icp_init` found: the transform, the closest points of
    its last iteration (None when none ran), how many iterations ran and why
    it stopped, ``fixed_point`` or ``iteration_cap``.  The closest points
    are a set found on the target's k-d tree for the source points as the
    last iteration moved them, so the next query of the moved source may
    take them as ``previous`` (:func:`find_correspondences`)."""

    transform: RigidTransform
    correspondences: CorrespondenceSet | None
    iterations: int
    reason: str


def rigid_icp_init(source: Surface, target: Surface, iters=DEFAULT_ICP_ITERS,
                   eps_d=DEFAULT_EPS_D, theta=DEFAULT_THETA_DEG):
    """Point-to-point ICP with distance/normal pair rejection.

    A pair is kept when its points lie at most ``eps_d`` apart and its
    normals within ``theta`` degrees.  Between two meshes the normals must
    point the same way (``n . m >= cos theta``), which rejects back-facing
    pairs on folded or thin sheets.  When either surface is a point cloud,
    whose PCA normals have no sign, they need only lie along the same line
    (``|n . m| >= cos theta``).  Fewer than 3 pairs kept raise
    ``InitializationError``.

    The iterations start from the identity, and ``iters`` caps them: ICP
    stops at the first iteration that keeps the same pairs as the one before
    (the same rows, each with the same closest point).  The last update was
    the least-squares fit of just those pairs, so fitting them again gives
    the identity, up to rounding: the transform is ICP's fixed point.
    Returns a :class:`RigidIcpResult`.  ``iters`` must be a non-negative
    integer, ``eps_d`` finite and positive and ``theta`` in (0, 180], or
    ``InvalidInputError`` is raised.
    """
    check_number("iters", iters, lambda v: v >= 0, "a non-negative integer", integer=True)
    check_number("eps_d", eps_d, lambda v: 0 < v < np.inf, "finite and positive")
    check_number("theta", theta, lambda v: 0.0 < v <= 180.0, "in (0, 180] degrees")
    if source.normals is None or target.normals is None:
        raise InvalidInputError("rigid ICP needs normals on both surfaces")
    if target.n_vertices == 0:
        raise InvalidInputError("cannot index an empty point set")
    rt = RigidTransform.identity()
    signed = source.has_faces and target.has_faces
    cos_lim = np.cos(np.deg2rad(theta))
    # taken once as an array (each iteration rotates all of them), and only
    # if an iteration runs
    normals = np.asarray(source.normals) if iters else None
    corr = pairs = None
    for it in range(iters):
        moved = rt.apply(source.vertices)
        corr = find_correspondences(moved, target, previous=corr)
        dots = np.einsum("ij,ij->i", normals @ rt.rotation.T,
                         target.normals[corr.indices])
        if not signed:
            dots = np.abs(dots)
        keep = (corr.distances <= eps_d) & (dots >= cos_lim)
        if int(keep.sum()) < 3:
            raise InitializationError(
                f"rigid ICP iteration {it}: fewer than 3 valid pairs")
        if (pairs is not None and np.array_equal(keep, pairs[0])
                and np.array_equal(corr.indices[keep], pairs[1])):
            return RigidIcpResult(rt, corr, it + 1, "fixed_point")
        pairs = keep, corr.indices[keep]
        rt = best_rigid(moved[keep], corr.positions[keep]).compose(rt)
    return RigidIcpResult(rt, corr, iters, "iteration_cap")


def lift_rigid_to_state(rt: RigidTransform, g):
    """Per-node state that reproduces the rigid map exactly under blending:
    A_j = R and t_j = R p_j + t - p_j."""
    r = g.n_nodes
    A = np.broadcast_to(rt.rotation, (r, 3, 3)).copy()
    t = g.node_positions @ rt.rotation.T + rt.translation - g.node_positions
    return pack_state(A, t)

