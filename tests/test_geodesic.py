import struct
import tracemalloc

import numpy as np
import pytest

from nrreg.errors import InvalidInputError
from nrreg.evaluate import add_gaussian_normal_noise
from nrreg.geodesic import _incident_triangles, geodesic_from
from nrreg.mesh import Surface, compute_normals, normalize_pair, surface_edges

from conftest import grid_mesh, polyline_surface
from oracles import dense, fast_marching, knn_geodesics


def test_polyline_distances():
    s = polyline_surface(4, spacing=2.0)
    d = dense(geodesic_from(s, 0), 4)
    assert np.allclose(d, [0.0, 2.0, 4.0, 6.0])
    d = dense(geodesic_from(s, 2), 4)
    assert np.allclose(d, [4.0, 2.0, 0.0, 2.0])


def test_fmm_flat_grid_close_to_euclidean():
    s = grid_mesh(9, 9, wavy=0.0)
    d = dense(geodesic_from(s, 0), s.n_vertices)
    exact = np.linalg.norm(s.vertices - s.vertices[0], axis=1)
    rel = np.abs(d[1:] - exact[1:]) / exact[1:]
    # planar convex domain: geodesics are straight lines.  The right-triangle
    # grid leaves a direction-dependent consistency error of about 4% for
    # characteristics crossing the right angle, independent of resolution.
    assert rel.max() < 0.05
    # the triangulation diagonal is aligned with the true ray: exact there
    assert d[-1] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_fmm_never_exceeds_dijkstra():
    s = grid_mesh(9, 9, wavy=0.1)
    fmm = dense(geodesic_from(s, 0), s.n_vertices)
    dij = dense(geodesic_from(Surface(s.vertices, edges=surface_edges(s)), 0), s.n_vertices)
    assert np.all(fmm <= dij + 1e-12)


def test_cap_semantics():
    s = grid_mesh(9, 9, wavy=0.0)
    full = dense(geodesic_from(s, 0), s.n_vertices)
    capped = dense(geodesic_from(s, 0, cap=0.5), s.n_vertices)
    inside = full <= 0.5
    assert np.allclose(capped[inside], full[inside])
    assert np.all(np.isinf(capped[full > 0.5 + 1e-9]))


def test_repeated_edges_count_once():
    s = polyline_surface(4, spacing=2.0)
    twice = Surface(s.vertices, edges=np.vstack([s.edges, s.edges[:, ::-1], s.edges]))
    assert np.array_equal(dense(geodesic_from(twice, 0), 4), [0.0, 2.0, 4.0, 6.0])


def test_disconnected_vertices_are_inf():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 10, 10]], dtype=float)
    s = Surface(verts, np.array([[0, 1, 2]]))
    d = dense(geodesic_from(s, 0), 4)
    assert np.isfinite(d[:3]).all()
    assert np.isinf(d[3])


def test_bad_arguments():
    s = grid_mesh(3, 3)
    with pytest.raises(InvalidInputError):
        geodesic_from(s, 100)
    with pytest.raises(InvalidInputError):
        geodesic_from(s, -1)


@pytest.mark.parametrize("seed, cap", [
    (1.5, None), (np.float64(2.0), None), (True, None), (np.bool_(True), None),
    (1, float("nan")), (1, -1), (1, -1e-300), (1, True), (1, "0.5")])
@pytest.mark.parametrize("faces", [True, False], ids=["fast-marching", "dijkstra"])
def test_malformed_seed_or_cap_is_invalid_input(seed, cap, faces):
    """A seed that is not an integer and a cap that is not a real number at
    least 0 fail alike on a mesh and on a cloud: none is rounded, taken as a
    vertex or marched to an empty field."""
    s = grid_mesh(4, 4)
    s = s if faces else Surface(s.vertices)
    with pytest.raises(InvalidInputError, match="seed must be an integer" if cap is None
                       else "cap must be None or a real number"):
        geodesic_from(s, seed, cap=cap)
    # the integer seeds and caps at least 0 a march accepts
    for seed, cap in ((np.int32(2), np.float32(0.4)), (2, 0), (2, float("inf"))):
        assert 2 in geodesic_from(s, seed, cap=cap).indices


def test_point_cloud_falls_back_to_knn():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(60, 3))
    d = dense(geodesic_from(Surface(pts), 0), 60)
    assert d[0] == 0.0
    assert np.isfinite(d).all()


@pytest.mark.parametrize("seed", range(3))
def test_point_cloud_geodesics_match_dijkstra_on_the_knn_graph(seed):
    """Mutual neighbours share one edge at its length, not two summed."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.1]
    for v in (0, 77):
        assert np.allclose(dense(geodesic_from(Surface(pts), v), 150),
                           knn_geodesics(pts, v), rtol=1e-12, atol=0.0)


def test_flat_grid_cloud_geodesics_are_path_lengths():
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
    cloud = Surface(np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)]))
    d = dense(geodesic_from(cloud, 0), 400)
    assert d[1] == 1.0
    # the diagonal steps, the straight line to the far corner
    assert d[-1] == pytest.approx(19.0 * np.sqrt(2.0), rel=1e-12)


def test_derived_surfaces_march_their_own_geometry():
    """What a surface is marched on is kept with it; a surface made from it
    by normalizing or adding noise gets its own."""
    s = compute_normals(grid_mesh(9, 9))
    for t in (s, normalize_pair(s, s)[0], add_gaussian_normal_noise(s, 0.5, 0.05, 1)):
        assert np.array_equal(dense(geodesic_from(t, 3), t.n_vertices),
                              fast_marching(t.vertices, t.faces, 3, None))


@pytest.mark.parametrize("n", [9, 25])
def test_fmm_matches_pointwise_oracle_on_test_grids(n):
    s = grid_mesh(n, n)
    for seed in range(0, n * n, n + 2):
        for cap in (None, 0.3):
            assert np.array_equal(dense(geodesic_from(s, seed, cap=cap), n * n),
                                  fast_marching(s.vertices, s.faces, seed, cap))


def vertex_records(table, v):
    """Vertex v's records of a packed fast-marching table, one flat list."""
    records, offsets = table
    return [x for record in struct.iter_unpack("<qq5d", records[offsets[v]:offsets[v + 1]])
            for x in record]


def test_fast_marching_table_holds_one_record_per_incident_triangle():
    """Each vertex's slice holds ``(q, r, |vq|, |vr|, |qr|, dot_q, dot_r)``
    per triangle (v, q, r) at it, in face order; a triangle that repeats a
    vertex gives that vertex no record."""
    points = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 2, 0]])
    table = _incident_triangles(points, np.array([[0, 1, 2], [1, 3, 2], [3, 3, 0]]))
    r5 = np.sqrt(5.0)
    rows = [vertex_records(table, v) for v in range(4)]
    assert rows[0] == [1, 2, 1.0, 2.0, r5, 1.0, 4.0, 3, 3, r5, r5, 0.0, 0.0, 0.0]
    assert rows[1] == [2, 0, r5, 1.0, 2.0, 4.0, 0.0, 3, 2, 2.0, r5, 1.0, 0.0, 1.0]
    assert rows[2] == [0, 1, 2.0, r5, 1.0, 0.0, 1.0, 1, 3, r5, 1.0, 2.0, 4.0, 0.0]
    assert rows[3] == [2, 1, 1.0, 2.0, r5, 1.0, 4.0]
    assert all(type(x) is (int if k % 7 < 2 else float)
               for row in rows for k, x in enumerate(row))
    records, offsets = table
    assert len(offsets) == 5 and offsets[-1] == len(records) == 56 * 7


@pytest.mark.parametrize("n", [50, 100])
def test_fast_marching_table_is_compact(n):
    """The table is the largest structure of a graph build: at most 200 B
    per face, where one list of Python numbers per vertex took about 445,
    and at most 500 B per face at the build's peak."""
    s = grid_mesh(n, n)
    tracemalloc.start()
    try:
        table = _incident_triangles(s.vertices, s.faces)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table[1]) == s.n_vertices + 1
    assert size <= 200 * len(s.faces)
    assert peak <= 500 * len(s.faces)
