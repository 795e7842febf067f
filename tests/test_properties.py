"""Property tests of the geodesic invariants the deformation graph relies on.

The graph marches each node's field once, capped at 2R, and reads both the
sampling test (distances below R) and the influence and edge rules from it.
That is exact only if a capped field equals the uncapped one with every
entry beyond the cap set to +inf.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nrreg.geodesic import geodesic_from
from nrreg.mesh import Surface

from conftest import grid_mesh


@st.composite
def wavy_grids(draw):
    """A small wavy grid mesh, its vertices jittered in the plane by up to
    0.3 grid spacings, and a seed vertex."""
    nx = draw(st.integers(3, 12))
    ny = draw(st.integers(3, 12))
    s = grid_mesh(nx, ny, wavy=draw(st.floats(0.0, 0.2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = s.vertices.copy()
    v[:, :2] += rng.uniform(-0.3, 0.3, size=(len(v), 2)) / max(nx, ny)
    return Surface(v, s.faces), draw(st.integers(0, nx * ny - 1))


@settings(max_examples=40, deadline=None)
@given(wavy_grids(), st.floats(0.0, 1.2), st.booleans())
def test_capped_field_is_uncapped_field_cut_at_cap(case, cap_share, point_cloud):
    s, seed = case
    if point_cloud:
        s = Surface(s.vertices)     # Dijkstra on the k-NN surface graph
    full = geodesic_from(s, seed).distances
    cap = cap_share * float(full.max())
    capped = geodesic_from(s, seed, cap=cap).distances
    assert np.array_equal(capped, np.where(full > cap, np.inf, full))


@settings(max_examples=40, deadline=None)
@given(wavy_grids())
def test_fmm_between_euclidean_and_dijkstra(case):
    s, seed = case
    fmm = geodesic_from(s, seed, method="fmm").distances
    dij = geodesic_from(s, seed, method="dijkstra").distances
    euclid = np.linalg.norm(s.vertices - s.vertices[seed], axis=1)
    assert np.all(euclid <= fmm + 1e-12)
    assert np.all(fmm <= dij + 1e-12)
