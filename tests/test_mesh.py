import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.spatial import cKDTree

from nrreg import mesh
from nrreg.errors import DegenerateInputError, FormatError, InvalidInputError
from nrreg.evaluate import add_gaussian_normal_noise, synthesize_deformation
from nrreg.graph import build_graph
from nrreg.mesh import (LazyNormals, NormalizationRecord, Surface, compute_normals,
                        edges_from_faces, error_colors, load_obj, load_ply,
                        load_surface, mean_edge_length, normalize_pair,
                        save_ply, surface_edges, write_error_mesh)

from conftest import grid_mesh
from oracles import (face_vertex_normals, neighbour_covariances, pca_normals_eigh,
                     save_obj_rows, upper_entries)


def test_edges_from_faces_unique_sorted():
    faces = np.array([[0, 1, 2], [2, 1, 3]])
    e = edges_from_faces(faces)
    assert e.shape == (5, 2)
    assert np.all(e[:, 0] < e[:, 1])
    assert [1, 2] in e.tolist()


def test_surface_validation():
    with pytest.raises(InvalidInputError):
        Surface(np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        Surface(np.zeros((3, 3)), faces=np.array([[0, 1, 5]]))
    with pytest.raises(InvalidInputError):
        Surface(np.zeros((3, 3)), edges=np.array([[1, 1]]))


def test_surface_rejects_non_finite():
    v = np.zeros((3, 3))
    v[1, 2] = np.nan
    with pytest.raises(InvalidInputError):
        Surface(v)
    normals = np.ones((3, 3))
    normals[0, 0] = np.inf
    with pytest.raises(InvalidInputError):
        Surface(np.zeros((3, 3)), normals=normals)


@pytest.mark.parametrize("normals", [
    lambda: np.ones((50, 3)), lambda: np.ones((100, 2)), lambda: np.ones(300),
    lambda: np.ones((100, 3, 1)),
    lambda: LazyNormals(Surface(np.random.default_rng(0).uniform(size=(50, 3))), 10)],
    ids=["50 rows", "2 columns", "flat", "3-d", "cloud of 50"])
def test_surface_rejects_wrongly_shaped_normals(normals):
    with pytest.raises(InvalidInputError, match=r"normals must be an \(100, 3\) array"):
        Surface(np.zeros((100, 3)), normals=normals())


@pytest.mark.parametrize("faces, edges", [
    (np.array([0, 1, 2]), None), ([[0, 1, 2, 3]], None), (np.empty(0), None),
    (np.zeros((1, 3, 1)), None), (None, [[0, 1, 2]]), (None, np.array([0, 1])),
    (None, np.empty(0))],
    ids=["flat faces", "quad", "flat empty faces", "3-d faces", "edge of 3",
         "flat edges", "flat empty edges"])
def test_surface_rejects_wrongly_shaped_faces_and_edges(faces, edges):
    name = "faces" if edges is None else "edges"
    with pytest.raises(InvalidInputError, match=name + r" must be an \(\w, [23]\) array"):
        Surface(np.zeros((4, 3)), faces, edges)


@pytest.mark.parametrize("faces, edges", [
    ([[0.5, 1, 2]], None), ([[0, 1, 2.9]], None), (np.array([[0.0, 1.0, 2.5]]), None),
    ([[True, 1, 2]], None), (np.ones((1, 3), dtype=bool), None), ([["0", "1", "2"]], None),
    ([[0, 1, None]], None), (np.array([[0.0, 1.0, np.nan]]), None), ([[0, 1, 2], [0, 1]], None),
    (None, [[0.5, 1.7]]), (None, [[False, 1]]), (None, np.array([["0", "1"]]))],
    ids=["half", "2.9", "float array", "True", "bool array", "strings", "None", "nan",
         "ragged", "edge fractions", "edge False", "edge strings"])
def test_surface_rejects_non_integral_indices(faces, edges):
    name = "faces" if edges is None else "edges"
    with pytest.raises(InvalidInputError, match=name + " must hold integer indices"):
        Surface(np.zeros((4, 3)), faces, edges)


@pytest.mark.parametrize("faces", [
    [[0.0, 1.0, 2.0]], np.array([[0.0, 1.0, 2.0]]), [[np.int32(0), np.float64(1.0), 2]],
    np.array([[0, 1, 2]], dtype=np.uint8)])
def test_surface_accepts_whole_float_and_integer_indices(faces):
    s = Surface(np.zeros((4, 3)), faces)
    assert s.faces.dtype == np.int64 and s.faces.tolist() == [[0, 1, 2]]


def test_surface_is_immutable():
    mesh_ = compute_normals(grid_mesh(3, 3))
    cloud = Surface(np.eye(3), edges=np.array([[0, 1], [1, 2]]), normals=np.eye(3))
    for s in (mesh_, cloud):
        for name in ("vertices", "faces", "edges", "normals"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, getattr(s, name))
            if getattr(s, name) is not None:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, name)[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        surface_edges(Surface(np.eye(3)))[0, 0] = 2


def test_surface_leaves_the_callers_arrays_writable():
    v, f, n = np.eye(3), np.array([[0, 1, 2]], dtype=np.int64), np.ones((3, 3))
    e = np.array([[0, 1]], dtype=np.int64)
    Surface(v, f, normals=n)
    Surface(v, edges=e)
    for a in (v, f, n, e):
        assert a.flags.writeable
        a[0, 0] = 0


@pytest.mark.parametrize("copy_surface", [lambda s: pickle.loads(pickle.dumps(s)),
                                          copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copied_surface_is_read_only_and_derives_anew(copy_surface):
    rng = np.random.default_rng(5)
    mesh_ = compute_normals(grid_mesh(4, 3))
    cloud = compute_normals(Surface(rng.uniform(size=(30, 3))))
    surface_edges(cloud)
    for s in (mesh_, cloud):
        c = copy_surface(s)
        assert c._derived == {}
        for name in ("vertices", "faces", "edges", "normals"):
            a, b = getattr(s, name), getattr(c, name)
            if a is None:
                assert b is None
                continue
            assert a.dtype == b.dtype and np.array_equal(a, b)
            with pytest.raises(ValueError, match="read-only"):
                b[0, 0] = 1
    assert np.array_equal(surface_edges(copy_surface(cloud)), surface_edges(cloud))


def test_derived_surfaces_get_their_own_knn_graph():
    rng = np.random.default_rng(4)
    cloud = compute_normals(Surface(rng.uniform(size=(80, 3))))
    kept = surface_edges(cloud)
    assert surface_edges(cloud) is kept
    for s in (normalize_pair(cloud, cloud)[0], add_gaussian_normal_noise(cloud, 0.5, 0.05, 1)):
        assert surface_edges(s) is not kept
        assert np.array_equal(surface_edges(s), surface_edges(Surface(s.vertices)))


def test_point_cloud_surface_graph_is_knn():
    pts = np.column_stack([np.arange(12.0), np.zeros(12), np.zeros(12)])
    e = surface_edges(Surface(pts))
    assert e.shape == (12 * 8, 2)
    assert np.all(e[:, 0] != e[:, 1])
    # the first point's 8 neighbors are the next 8 points on the line
    assert sorted(e[e[:, 0] == 0, 1].tolist()) == list(range(1, 9))
    lengths = np.abs(pts[e[:, 0], 0] - pts[e[:, 1], 0])
    assert mean_edge_length(Surface(pts)) == pytest.approx(lengths.mean())


def test_point_cloud_surface_graph_has_no_self_loops():
    # coincident points: the k-NN query may return the twin before the point
    assert surface_edges(Surface(np.zeros((2, 3)))).tolist() == [[0, 1], [1, 0]]
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    grid = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(100)])
    dup = [3, 17, 42, 66, 91]
    e = surface_edges(Surface(np.vstack([grid, grid[dup]])))
    assert e.shape == (105 * 8, 2)
    assert np.all(e[:, 0] != e[:, 1])
    for twin, i in zip(range(100, 105), dup):
        assert twin in e[e[:, 0] == i, 1]
        assert i in e[e[:, 0] == twin, 1]


def test_surface_edges_derived_from_faces():
    s = grid_mesh(3, 3)
    e = surface_edges(s)
    assert len(e) == 16  # 12 axis-aligned + 4 diagonals
    assert e.dtype == np.int64
    assert s.edges is None


@pytest.fixture
def edge_derivations(monkeypatch):
    """The face lists ``edges_from_faces`` is called on from here on."""
    calls = []

    def counting(faces):
        calls.append(len(faces))
        return edges_from_faces(faces)

    monkeypatch.setattr(mesh, "edges_from_faces", counting)
    return calls


def test_mesh_edges_are_derived_only_when_read(tmp_path, edge_derivations):
    """Loading, normals, normalizing, deforming and writing a mesh read no
    edges, so none is derived."""
    g = grid_mesh(6, 5)
    graph = build_graph(g, R=0.5)
    save_obj_rows(g, tmp_path / "m.obj")
    save_ply(g, tmp_path / "m.ply", binary=True)
    surfaces = [load_obj(tmp_path / "m.obj"), load_ply(tmp_path / "m.ply")]
    surfaces += [compute_normals(s) for s in surfaces]
    surfaces += normalize_pair(surfaces[2], surfaces[3])[:2]
    rots = np.tile(np.eye(3), (graph.n_nodes, 1, 1))
    surfaces.append(synthesize_deformation(g, graph, rots, np.zeros((graph.n_nodes, 3)))[0])
    for k, s in enumerate(surfaces):
        assert s.has_faces and s.edges is None
        save_ply(s, tmp_path / f"out{k}.ply")
    assert edge_derivations == []


def test_mesh_edges_are_derived_once_and_shared(edge_derivations):
    """The first read derives a mesh's edges; the surface compute_normals
    gives shares them."""
    s = grid_mesh(4, 4)
    mean_edge_length(s)
    assert edge_derivations == [len(s.faces)]
    e = surface_edges(compute_normals(s))
    assert surface_edges(s) is e
    assert edge_derivations == [len(s.faces)]
    assert not e.flags.writeable
    assert np.array_equal(e, edges_from_faces(s.faces))


def test_mean_edge_length_unit_square():
    s = grid_mesh(2, 2)
    # four sides of length 1 plus one diagonal
    assert mean_edge_length(s) == pytest.approx((4 + np.sqrt(2)) / 5)
    with pytest.raises(DegenerateInputError):
        mean_edge_length(Surface(np.zeros((2, 3))))


def test_normalize_pair_unit_diagonal_and_roundtrip():
    rng = np.random.default_rng(0)
    a = Surface(rng.normal(size=(40, 3)) * 3 + 10)
    b = Surface(rng.normal(size=(30, 3)) - 5)
    an, bn, rec = normalize_pair(a, b)
    pts = np.vstack([an.vertices, bn.vertices])
    diag = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
    assert diag == pytest.approx(1.0)
    assert np.allclose(an.vertices.mean(axis=0), 0.0)
    back = rec.denormalize(an.vertices, "source")
    assert np.allclose(back, a.vertices, atol=1e-12)
    back_t = rec.denormalize(rec.normalize(b.vertices, "target"), "target")
    assert np.allclose(back_t, b.vertices, atol=1e-12)
    with pytest.raises(InvalidInputError):
        rec.normalize(a.vertices, "nope")


def test_normalize_pair_degenerate():
    s = Surface(np.zeros((4, 3)))
    with pytest.raises(DegenerateInputError):
        normalize_pair(s, s)


def test_mesh_normals_flat_grid():
    s = compute_normals(grid_mesh(5, 5, wavy=0.0))
    assert np.allclose(s.normals, [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0)


def test_point_cloud_normals_sphere():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    s = compute_normals(Surface(pts))
    radial = np.einsum("ij,ij->i", s.normals, pts)
    # PCA normals are radial, each with its own sign
    assert np.all(np.abs(radial) > 0.95)


@pytest.mark.parametrize("k", [0, 1, -1, 1.5, 10.0, "10", None, True])
def test_compute_normals_takes_an_integer_k_of_at_least_two(k):
    """A neighbourhood of fewer than 3 points spans no plane; a bad k fails
    when compute_normals is called, not when a normal is first read."""
    cloud = Surface(np.random.default_rng(0).uniform(size=(30, 3)))
    for s in (cloud, grid_mesh(4, 4)):
        with pytest.raises(InvalidInputError, match="k must be an integer >= 2"):
            compute_normals(s, k=k)
    assert compute_normals(cloud, k=np.int64(2)).normals.shape == (30, 3)
    with pytest.raises(DegenerateInputError):
        compute_normals(Surface(np.eye(3)[:2]))


def test_cloud_normals_are_estimated_row_by_row(monkeypatch):
    """compute_normals on a point cloud builds no k-d tree and estimates
    nothing; the first read builds the cloud's one tree, each read queries
    it for the rows not read before, and nothing else, through the one
    estimator, and the k-NN graph queries the same tree."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(200, 3))
    built, queries, given = [], [], []

    class CountingTree(cKDTree):
        def __init__(self, points, *args, **kwargs):
            built.append(len(points))
            super().__init__(points, *args, **kwargs)

        def query(self, x, k=1, **kwargs):
            queries.append(len(x))
            return super().query(x, k=k, **kwargs)

    pca = mesh._pca_normals

    def counted(points, k, rows, tree):
        given.append(rows.tolist())
        return pca(points, k, rows, tree)

    monkeypatch.setattr(mesh, "cKDTree", CountingTree)
    monkeypatch.setattr(mesh, "_pca_normals", counted)
    s = compute_normals(Surface(pts))
    assert built == [] and queries == [] and given == []
    s.normals[[5, 3, 5]]
    s.normals[3:7]
    s.normals[4]
    assert given == [[3, 5], [4, 6]] and queries == [2, 2]
    surface_edges(s)
    assert queries == [2, 2, 200]
    np.asarray(s.normals)
    assert len(given[-1]) == 196 and queries[-1] == 196
    assert sorted(sum(given, [])) == list(range(200))
    assert built == [200]


def _reads_as_a_read_only_array(n, full, rng):
    """Every read of ``n`` is bit for bit that of the (40, 3) array ``full``,
    a row read alone included, and no read or operator writes into it."""
    assert isinstance(n, LazyNormals)
    assert n.shape == (40, 3) and n.dtype == np.float64 and n.ndim == 2 and len(n) == 40
    mask = rng.uniform(size=40) < 0.5
    for key in (7, -1, slice(3, 30, 4), [2, 2, 39], np.array([9, 0]), mask, (mask, 2),
                (slice(None), 0), (Ellipsis, 1), (), Ellipsis):
        assert n[key].tobytes() == full[key].tobytes()
    for key in ((0, 0), 0, slice(None), [1, 2], mask):
        with pytest.raises(ValueError, match="read-only"):
            n[key] = 1
    with pytest.raises(ValueError, match="read-only"):
        n[3:5][0, 0] = 1
    a = np.asarray(n)
    assert not a.flags.writeable and a.tobytes() == full.tobytes()
    assert np.array(n).flags.writeable
    assert np.asarray(n, dtype=np.float32).dtype == np.float32
    with pytest.raises(IndexError):
        n[40]
    # operators and ufuncs take the values as the array
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert (-n).tobytes() == (-full).tobytes()
    assert (n @ rot.T).tobytes() == (full @ rot.T).tobytes()
    assert (n * 2.5).tobytes() == (2.5 * n).tobytes() == (full * 2.5).tobytes()
    assert np.add(n, n).tobytes() == (full + full).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        n += 1
    with pytest.raises(ValueError, match="read-only"):
        np.multiply(full, 2.0, out=n)
    assert np.asarray(n).tobytes() == full.tobytes()
    for c in (pickle.loads(pickle.dumps(n)), copy.deepcopy(n)):
        assert isinstance(c, LazyNormals) and c.shape == (40, 3)
        assert np.asarray(c).tobytes() == full.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 1


def test_cloud_normals_read_as_a_read_only_array():
    """A cloud's normals read like a read-only (n, 3) float64 array, each
    read bit for bit the full pass's rows, a row read alone included."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(40, 3))
    full = mesh._pca_normals(pts, 10)
    _reads_as_a_read_only_array(compute_normals(Surface(pts)).normals, full, rng)


@pytest.mark.parametrize("first", ["row", "mask", "array", "operator"])
def test_mesh_normals_read_as_a_read_only_array(first):
    """A mesh's normals read as a cloud's do, every read bit for bit the
    face-normal pass and its np.add.at oracle, whichever read comes first."""
    rng = np.random.default_rng(6)
    s = grid_mesh(8, 5, wavy=0.2)
    full = mesh._face_vertex_normals(s.vertices, s.faces)
    assert full.tobytes() == face_vertex_normals(s.vertices, s.faces).tobytes()
    n = compute_normals(s).normals
    reads = {"row": lambda: n[17], "mask": lambda: n[rng.uniform(size=40) < 0.5],
             "array": lambda: np.asarray(n), "operator": lambda: -n}
    reads[first]()
    _reads_as_a_read_only_array(n, full, rng)


def test_face_normals_match_add_at_oracle():
    """The per-vertex sums add the faces' normals in np.add.at's order, so
    they are equal bit for bit."""
    s = grid_mesh(50, 50, wavy=0.1)
    assert np.array_equal(mesh._face_vertex_normals(s.vertices, s.faces),
                          face_vertex_normals(s.vertices, s.faces))
    rng = np.random.default_rng(3)
    v = rng.normal(size=(60, 3))
    f = rng.integers(0, 60, size=(300, 3))
    assert np.array_equal(mesh._face_vertex_normals(v, f), face_vertex_normals(v, f))


@pytest.mark.parametrize("seed", range(4))
def test_pca_normals_reuse_the_neighbour_query(seed, monkeypatch):
    """One k+1 nearest-neighbour query serves the whole fit: the tree is
    queried once, and the normals are the package's eigenvectors of the
    covariances of exactly the neighbourhoods that query returns."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 1500))
    xy = rng.uniform(size=(n, 2))
    pts = np.column_stack([xy, 0.1 * np.sin(4.0 * xy[:, 0]) + rng.normal(0.0, 0.02, size=n)])
    queries = []

    class CountingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            queries.append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(mesh, "cKDTree", CountingTree)
    for k in (6, 10):
        queries.clear()
        fast = mesh._pca_normals(pts, k=k)
        assert queries == [k + 1]
        _, idx = cKDTree(pts).query(pts, k=k + 1)
        ref = mesh._smallest_eigenvectors(upper_entries(neighbour_covariances(pts, idx)))
        sign = np.sign(np.einsum("ij,ij->i", fast, ref))[:, None]
        assert np.linalg.norm(fast - sign * ref, axis=1).max() < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_pca_normals_match_eigh_up_to_one_sign(seed):
    """The closed-form eigenvectors are LAPACK's to 1e-9 rad, each up to the
    sign that neither solver fixes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 1500))
    xy = rng.uniform(size=(n, 2))
    pts = np.column_stack([xy, 0.1 * np.sin(4.0 * xy[:, 0]) + rng.normal(0.0, 0.02, size=n)])
    for k in (6, 10):
        fast, ref = mesh._pca_normals(pts, k=k), pca_normals_eigh(pts, k=k)
        sign = np.sign(np.einsum("ij,ij->i", fast, ref))[:, None]
        # the chord, not arccos of the dot, resolves angles below 1e-8 rad
        assert np.linalg.norm(fast - sign * ref, axis=1).max() < 1e-9


def test_obj_roundtrip(tmp_path):
    s = grid_mesh(4, 3)
    p = tmp_path / "m.obj"
    save_obj_rows(s, p)
    back = load_obj(p)
    assert np.allclose(back.vertices, s.vertices, atol=1e-8)
    assert np.array_equal(back.faces, s.faces)


def test_obj_fan_triangulation(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    s = load_obj(p)
    assert s.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_obj_bad_index_reports_line(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(FormatError) as exc:
        load_obj(p)
    assert exc.value.line == 4


def test_obj_bad_coordinate(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 zero 0\n")
    with pytest.raises(FormatError):
        load_obj(p)


def test_ply_ascii_roundtrip(tmp_path):
    s = compute_normals(grid_mesh(3, 3))
    p = tmp_path / "m.ply"
    save_ply(s, p)
    back = load_ply(p)
    assert np.allclose(back.vertices, s.vertices, atol=1e-8)
    assert np.allclose(back.normals, s.normals, atol=1e-8)
    assert np.array_equal(back.faces, s.faces)


@pytest.mark.parametrize("normals", [False, True])
@pytest.mark.parametrize("colors", [False, True])
@pytest.mark.parametrize("faces", [None, "empty", "grid"])
def test_saved_ascii_ply_loads_line_by_line(tmp_path, monkeypatch, normals, colors, faces):
    """save_ply writes an ascii body one row per line, so it loads one block
    per element from its own lines, never as one whole-body stream."""
    g = grid_mesh(3, 4)
    f = {None: None, "empty": np.empty((0, 3), dtype=np.int64), "grid": g.faces}[faces]
    s = Surface(g.vertices, f, normals=compute_normals(g).normals if normals else None)
    p = tmp_path / "m.ply"
    save_ply(s, p, colors=np.arange(36).reshape(12, 3) if colors else None)

    def whole(data):
        raise AssertionError("the body was read whole")

    monkeypatch.setattr(mesh, "_ascii_values", whole)
    back = load_ply(p)
    assert back.vertices.tolist() == [[float("%.9g" % x) for x in v] for v in s.vertices]
    assert (back.normals is None) == (not normals)
    if normals:
        assert back.normals.tolist() == [[float("%.9g" % x) for x in v] for v in s.normals]
    assert (back.faces is None) == (faces != "grid")
    if faces == "grid":
        assert back.faces.dtype == np.int64 and np.array_equal(back.faces, s.faces)


def test_ply_binary_roundtrip(tmp_path):
    s = grid_mesh(3, 4)
    p = tmp_path / "m.ply"
    save_ply(s, p, binary=True)
    back = load_ply(p)
    # float32 storage
    assert np.allclose(back.vertices, s.vertices, atol=1e-6)
    assert np.array_equal(back.faces, s.faces)


def test_ply_binary_beyond_float32_is_typed_error(tmp_path):
    p = tmp_path / "big.ply"
    with pytest.raises(InvalidInputError):
        save_ply(Surface([[1e39, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), p, binary=True)
    assert not p.exists()


def test_ply_bad_magic(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_bytes(b"not a ply\n")
    with pytest.raises(FormatError):
        load_ply(p)


_PLY_XYZ = (b"ply\nformat ascii 1.0\nelement vertex 3\n"
            b"property float x\nproperty float y\nproperty float z\n")
_PLY_FACE = b"element face 1\nproperty list uchar int vertex_indices\n"
_PLY_BODY = b"end_header\n0 0 0\n1 0 0\n0 1 0\n"


def _binary_triangle():
    return (_PLY_XYZ.replace(b"ascii", b"binary_little_endian") + _PLY_FACE + b"end_header\n"
            + np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype="<f4").tobytes()
            + bytes([3]) + np.array([0, 1, 2], dtype="<i4").tobytes())


# Each escaped as a builtin exception from the row-by-row reader.
MALFORMED_PLY = {
    "truncated-ascii": _PLY_XYZ + b"end_header\n0 0 0\n1 0 0\n0 1",
    "non-numeric-token": _PLY_XYZ + b"end_header\n0 0 0\n1 zero 0\n0 1 0\n",
    "non-integer-count": _PLY_XYZ.replace(b"vertex 3", b"vertex 3.5") + _PLY_BODY,
    "no-z": _PLY_XYZ.replace(b"property float z\n", b"") + b"end_header\n0 0\n1 0\n0 1\n",
    "truncated-binary": _binary_triangle()[:-2],
    "unnamed-face-list": _PLY_XYZ + _PLY_FACE.replace(b"vertex_indices", b"corners")
    + _PLY_BODY + b"3 0 1 2\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PLY))
def test_ply_malformed_is_format_error(tmp_path, case):
    p = tmp_path / "bad.ply"
    p.write_bytes(MALFORMED_PLY[case])
    with pytest.raises(FormatError) as exc:
        load_ply(p)
    assert exc.value.path == p


_PLY_TRIANGLE = (_PLY_XYZ + _PLY_FACE
                 + b"end_header\n0.5 0 -1e-3\n1 0 2.25\n0 1 0\n3 0 1 2\n")


@pytest.mark.parametrize("body", [
    b"0.5 0 -1e-3\r\n1 0 2.25\r\n0 1 0\r\n3 0 1 2\r\n",
    b"0.5\t0\t-1e-3\n1  0\t 2.25\n  0   1 0 \n3\t\t0 1 2\n",
    b"0.5 0\n-1e-3\n1 0 2.25 0\n1 0\n3 0 1\n2\n",
    b"0.5 0 -1e-3 1 0 2.25 0 1 0 3 0 1 2"],
    ids=["crlf", "tabs-and-spaces", "rows-split-across-lines", "one-line"])
def test_ply_ascii_body_reads_any_whitespace(tmp_path, body):
    """An ascii body is values between runs of whitespace: line breaks,
    CRLF ones too, tabs and runs of spaces read as single spaces do, and a
    row may span lines."""
    p = tmp_path / "m.ply"
    p.write_bytes(_PLY_TRIANGLE)
    want = load_ply(p)
    p.write_bytes(_PLY_XYZ + _PLY_FACE + b"end_header\n" + body)
    got = load_ply(p)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tolist() == want.faces.tolist() == [[0, 1, 2]]
    # a header with CRLF endings reads as one with LF
    p.write_bytes(_PLY_TRIANGLE.replace(b"\n", b"\r\n"))
    assert load_ply(p).vertices.tobytes() == want.vertices.tobytes()


def test_ply_ascii_values_after_the_last_element(tmp_path):
    """Numbers after the last element are ignored; a token that is not a
    number fails wherever it lies, after the last element too."""
    p = tmp_path / "m.ply"
    p.write_bytes(_PLY_TRIANGLE + b"7 8.5\n-9\n")
    assert load_ply(p).faces.tolist() == [[0, 1, 2]]
    for tail in (b"7 eight\n", b"# a comment\n", b"3 0 1 2 x"):
        p.write_bytes(_PLY_TRIANGLE + tail)
        with pytest.raises(FormatError) as exc:
            load_ply(p)
        assert exc.value.path == p


@pytest.mark.parametrize("length", [b"2.5", b"inf", b"nan", b"-1"])
def test_ply_ascii_list_length_must_be_a_count(tmp_path, length):
    p = tmp_path / "m.ply"
    p.write_bytes(_PLY_TRIANGLE.replace(b"\n3 0 1 2", b"\n" + length + b" 0 1 2"))
    with pytest.raises(FormatError) as exc:
        load_ply(p)
    assert exc.value.path == p


_PLY_X_TWICE = (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float x\n"
                b"property float y\nproperty float z\nproperty list uchar float w\nend_header\n")


@pytest.mark.parametrize("body", [
    b"0 0 0 0 1 0.5\n1 1 0 0 1 0.5\n0 0 1 0 1 0.5\n",
    b"0 0 0\n0 1 0.5\n1 1 0 0 1 0.5\n0 0 1 0 1 0.5\n",
    b"0 0 0 0 1 0.5\n1 1 0 0 2 0.5 0.5\n0 0 1 0 0\n"],
    ids=["one-row-per-line", "row-split-over-lines", "ragged-rows"])
def test_ply_repeated_property_name_is_format_error(tmp_path, body):
    """A property named twice in one element fails in the header, whatever
    the body's layout: no column silently wins over the other."""
    p = tmp_path / "m.ply"
    p.write_bytes(_PLY_X_TWICE + body)
    with pytest.raises(FormatError, match="duplicate property 'x'") as exc:
        load_ply(p)
    assert exc.value.path == p and exc.value.line == 5


@pytest.mark.parametrize("header, line, name", [
    (_PLY_XYZ + _PLY_XYZ[len(b"ply\nformat ascii 1.0\n"):], 7, "vertex"),
    (_PLY_XYZ + _PLY_FACE + _PLY_FACE, 9, "face")],
    ids=["vertex", "face"])
def test_ply_repeated_element_name_is_format_error(tmp_path, header, line, name):
    """An element declared twice fails in the header: the second does not
    silently replace the first."""
    p = tmp_path / "m.ply"
    p.write_bytes(header + _PLY_BODY + b"5 5 5\n6 5 5\n5 6 5\n3 0 1 2\n3 0 1 2\n")
    with pytest.raises(FormatError, match=f"duplicate element '{name}'") as exc:
        load_ply(p)
    assert exc.value.path == p and exc.value.line == line


@pytest.mark.parametrize("layout", ["ascii", "binary", "split-rows"])
@pytest.mark.parametrize("normals", [False, True])
@pytest.mark.parametrize("colors", [False, True])
@pytest.mark.parametrize("faces", [None, "empty", "grid"])
def test_fixed_width_ply_elements_take_the_block_path(tmp_path, monkeypatch, layout, normals,
                                                      colors, faces):
    """Every row of an element save_ply writes has the first row's width, so
    each element is read as one block and none is walked row by row: ascii
    or binary, and with each ascii row split over two lines."""
    g = grid_mesh(3, 4)
    f = {None: None, "empty": np.empty((0, 3), dtype=np.int64), "grid": g.faces}[faces]
    s = Surface(g.vertices, f, normals=compute_normals(g).normals if normals else None)
    p = tmp_path / "m.ply"
    save_ply(s, p, colors=np.arange(36).reshape(12, 3) if colors else None,
             binary=layout == "binary")
    want = load_ply(p)
    if layout == "split-rows":
        head, body = p.read_bytes().split(b"end_header\n")
        rows = body.splitlines(keepends=True)
        p.write_bytes(head + b"end_header\n" + b"".join(r.replace(b" ", b"\n", 1) for r in rows))
    walks = []
    walk = mesh._walk
    monkeypatch.setattr(mesh, "_walk", lambda body, pos, count, props:
                        walks.append(count) or walk(body, pos, count, props))
    got = load_ply(p)
    assert [c for c in walks if c > 1] == []
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert (got.faces is None) == (faces != "grid")
    if faces == "grid":
        assert np.array_equal(got.faces, s.faces)


def test_ply_face_list_named_vertex_index(tmp_path):
    p = tmp_path / "m.ply"
    p.write_bytes(_PLY_XYZ + _PLY_FACE.replace(b"indices", b"index") + _PLY_BODY + b"3 0 1 2\n")
    assert load_ply(p).faces.tolist() == [[0, 1, 2]]
    # the untruncated binary file of the malformed cases loads
    p.write_bytes(_binary_triangle())
    assert load_ply(p).faces.tolist() == [[0, 1, 2]]



@pytest.mark.parametrize("ltype", [b"int", b"float"])
def test_ply_ascii_face_index_must_be_whole(tmp_path, ltype):
    """A face index is a whole number in any list type: 1.9 is not read as 1,
    while 2.0 is 2."""
    p = tmp_path / "m.ply"
    head = _PLY_XYZ + _PLY_FACE.replace(b"int", ltype) + _PLY_BODY
    p.write_bytes(head + b"3 0 1 1.9\n")
    with pytest.raises(FormatError, match="non-integral vertex index in element 'face'") as exc:
        load_ply(p)
    assert exc.value.path == p
    p.write_bytes(head + b"3 0 1.0 2.0\n")
    assert load_ply(p).faces.tolist() == [[0, 1, 2]]


def test_ply_binary_face_index_must_be_whole(tmp_path):
    head = (_PLY_XYZ.replace(b"ascii", b"binary_little_endian")
            + _PLY_FACE.replace(b"int", b"float") + b"end_header\n"
            + np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype="<f4").tobytes() + bytes([3]))
    p = tmp_path / "m.ply"
    p.write_bytes(head + np.array([0, 1, 1.9], dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="non-integral vertex index in element 'face'"):
        load_ply(p)
    p.write_bytes(head + np.array([0, 1, 2], dtype="<f4").tobytes())
    assert load_ply(p).faces.tolist() == [[0, 1, 2]]


def test_binary_ply_rows_of_differing_length_load_without_a_warning(tmp_path):
    """The block read takes row 1 at row 0's list length, so its four bytes
    past the end, 01 00 80 7f, read as a float32 signalling NaN; loading
    must not warn of it (the test run turns RuntimeWarnings into errors)."""
    head = (b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property list uchar float w\nend_header\n")
    rows = (np.array([1, 2, 3], "<f4").tobytes() + bytes([1]) + np.array([0.5], "<f4").tobytes()
            + np.array([4, 5, 6], "<f4").tobytes() + bytes([0]))
    p = tmp_path / "w.ply"
    p.write_bytes(head + rows + bytes([0x01, 0x00, 0x80, 0x7F]))
    assert load_ply(p).vertices.tolist() == [[1, 2, 3], [4, 5, 6]]
    # the same bytes as a coordinate are a non-finite vertex
    p.write_bytes(head.replace(b"vertex 2", b"vertex 1") + rows[:8]
                  + bytes([0x01, 0x00, 0x80, 0x7F, 0]))
    with pytest.raises(InvalidInputError):
        load_ply(p)

def test_ply_mixed_polygons_fan_triangulate(tmp_path):
    p = tmp_path / "mixed.ply"
    p.write_bytes(_PLY_XYZ.replace(b"vertex 3", b"vertex 5")
                  + _PLY_FACE.replace(b"face 1", b"face 2")
                  + b"end_header\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0 0\n"
                  + b"4 0 1 2 3\n3 1 4 2\n")
    assert load_ply(p).faces.tolist() == [[0, 1, 2], [0, 2, 3], [1, 4, 2]]


def test_load_surface_dispatch(tmp_path):
    s = grid_mesh(3, 3)
    save_obj_rows(s, tmp_path / "m.obj")
    save_ply(s, tmp_path / "m.ply")
    assert load_surface(tmp_path / "m.obj").n_vertices == 9
    assert load_surface(tmp_path / "m.ply").n_vertices == 9
    with pytest.raises(InvalidInputError):
        load_surface(tmp_path / "m.stl")


def test_error_colors_ramp():
    c = error_colors([0.0, 0.5, 1.0])
    assert c.dtype == np.uint8
    assert c[0].tolist() == [0, 0, 255]
    assert c[2].tolist() == [255, 0, 0]
    assert np.all(c[:, 1] == 0)
    # all-zero field stays blue
    z = error_colors(np.zeros(4))
    assert np.all(z == [0, 0, 255])


def test_write_error_mesh(tmp_path):
    s = grid_mesh(3, 3)
    p = tmp_path / "err.ply"
    write_error_mesh(s, np.linspace(0, 1, s.n_vertices), p)
    text = p.read_text()
    assert "property uchar red" in text
    with pytest.raises(InvalidInputError):
        write_error_mesh(s, np.zeros(3), tmp_path / "bad.ply")
