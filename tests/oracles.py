"""Scalar reference implementations of the deformation map.

The package computes every deformed point as ``F X + P`` and every edge
residual as ``B X - Y``.  These loops restate the same quantities one point,
one node or one edge at a time, straight from the definitions, so the tests
can check the matrix forms against something other than themselves.
"""

import numpy as np

from nrreg.energy import unpack_state


def influence_list(g, i):
    """List of (node index, weight) pairs for source point ``i``."""
    row = g.influence.getrow(i)
    return list(zip(row.indices.tolist(), row.data.tolist()))


def blend_points(g, X):
    """Per-node blending: point i moves to sum_j w_ij (A_j (v_i - p_j) + p_j + t_j)."""
    A, t = unpack_state(X)
    V = g.source_positions
    out = np.zeros_like(V)
    Wc = g.influence.tocsc()
    for j in range(g.n_nodes):
        sl = slice(Wc.indptr[j], Wc.indptr[j + 1])
        rows, w = Wc.indices[sl], Wc.data[sl]
        p = g.node_positions[j]
        out[rows] += w[:, None] * ((V[rows] - p) @ A[j].T + p + t[j])
    return out


def residual_Dij(X, i, j, positions):
    """Transformation-consistency residual of node j measured at node i."""
    A, t = unpack_state(X)
    p_i = positions[i]
    p_j = positions[j]
    return A[j] @ (p_i - p_j) + p_j + t[j] - (p_i + t[i])


def project_rotation(A):
    """Closest rotation in Frobenius norm, via SVD with det correction."""
    U, _, Vt = np.linalg.svd(np.asarray(A, dtype=np.float64))
    d = np.sign(np.linalg.det(U @ Vt))
    if d == 0:
        d = 1.0
    return U @ np.diag([1.0, 1.0, d]) @ Vt
