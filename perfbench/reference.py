"""Host speed reference: a fixed numpy/scipy kernel timed between
registrations.

A host shared with other tenants runs in speed phases.  On a 2-vCPU cloud
VM the same registration took up to 1.5x longer for tens of seconds to
minutes, in CPU time as in wall time.  Each registration is therefore
reported relative to this kernel, timed just before and just after it.
The kernel calls no nrreg code and its inputs never change, so a change to
nrreg moves the registration and not the reference.  Its mix follows a
registration's numeric work: KD-tree build and queries (closest points,
PCA normals), a sparse LU factorization and solve (H0), and batched 3x3
products (``transform_points``).  On that VM, over four- to five-minute
runs of a fixed input, the reference-relative time varied 2.5-4x less than
the raw time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

GRID = 40       # the sparse system is the GRID x GRID five-point Laplacian
REPEATS = 4


def _inputs():
    rng = np.random.default_rng(0)
    n = GRID * GRID
    ones = np.ones(n)
    lap = (sp.diags(4.0 * ones) - sp.diags(ones[1:], 1) - sp.diags(ones[1:], -1)
           - sp.diags(ones[GRID:], GRID) - sp.diags(ones[GRID:], -GRID)).tocsc()
    return (lap, np.ones(n), rng.random((6000, 3)), rng.random((1600, 3)),
            rng.standard_normal((1600, 3, 3)), rng.standard_normal((1600, 3)))


_INPUTS = _inputs()


def reference_s():
    """Run the kernel once; returns its duration in seconds."""
    lap, rhs, cloud, queries, mats, points = _INPUTS
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        cKDTree(cloud).query(queries, k=4)
        splu(lap).solve(rhs)
        np.einsum("nij,nj->ni", mats, points)
        np.matmul(mats, mats)
    return time.perf_counter() - t0
