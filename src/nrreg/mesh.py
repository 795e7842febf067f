"""Surfaces: loading, writing, normalization and normal estimation.

Supported formats are OBJ (``v``/``f`` records, 1-based indices) and PLY
(ascii and binary_little_endian).  A surface is a vertex array with optional
triangle faces and optional edges.  A surface never changes, so what is
derived from it (a mesh's edges, its k-d tree, a point cloud's k-NN graph,
the geodesic tables) is built on first use and kept with it.  Normals are
computed on their first read (:class:`LazyNormals`): a mesh's all at once,
a point cloud's PCA normals row by row over the one k-d tree.  An ascii PLY
body written one row per line is converted one element at a time, each
element from its own lines as one typed block; any other layout is
converted whole to float64, and those values are read by position as a
binary body's are.
"""

from __future__ import annotations

import numbers
import re
import struct
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, FormatError, InvalidInputError

KNN_GRAPH_K = 8


def edges_from_faces(faces):
    """Unique undirected edges (sorted index pairs) of a triangle array with
    non-negative indices, in lexicographic order."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    a, b = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()
    i, j = np.minimum(a, b), np.maximum(a, b)
    # one integer key per pair, ordered as the pairs are
    n = j.max() + 1
    key = np.sort(i * n + j)
    # sorted, a key is new where it differs from its predecessor
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    key = key[new]
    return np.column_stack([key // n, key % n])


@dataclass(frozen=True, eq=False)
class Surface:
    """A sampled surface: points, optional triangles, optional edges, normals.

    A surface does not change: its fields cannot be reassigned, and its
    arrays are read-only views (the caller's own arrays keep their flags).
    ``edges`` holds only the edges the caller gave; the graph a surface is
    measured on, a mesh's edges derived from its faces included, is
    :func:`surface_edges`.  Normals are (n, 3): an array, or the read-only
    :class:`LazyNormals` of :func:`compute_normals`, whose rows are
    computed as they are read.  What is derived from it is built on first
    use and kept with it, see :meth:`derived`.
    """

    vertices: np.ndarray                    # (n, 3) float64
    faces: np.ndarray | None = None         # (f, 3) int64 or None
    edges: np.ndarray | None = None         # (e, 2) int64 as given, or None
    normals: np.ndarray | LazyNormals | None = None  # (n, 3) unit vectors or None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        def freeze(name, value, dtype):
            value = np.ascontiguousarray(value, dtype=dtype).view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
            return value

        def freeze_indices(name, value):
            a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
            if a.dtype == object:
                # numpy would read True as 1 and "2" as 2: only numbers pass
                a = np.array([x if isinstance(x, numbers.Real) and not isinstance(x, bool)
                              else np.nan for x in a.flat]).reshape(a.shape)
            if not (a.dtype.kind in "iu" or a.dtype.kind == "f"
                    and np.all(np.isfinite(a) & (a == np.trunc(a)))):
                raise InvalidInputError(f"{name} must hold integer indices")
            return freeze(name, a, np.int64)

        v = freeze("vertices", self.vertices, np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise InvalidInputError("vertices must be an (n, 3) array")
        if not np.isfinite(v).all():
            raise InvalidInputError("vertices must be finite")
        n = len(v)
        if self.faces is not None:
            f = freeze_indices("faces", self.faces)
            if f.ndim != 2 or f.shape[1] != 3:
                raise InvalidInputError(f"faces must be an (f, 3) array, got shape {f.shape}")
            if f.size and (f.min() < 0 or f.max() >= n):
                raise InvalidInputError("face index out of range")
        if self.edges is not None:
            e = freeze_indices("edges", self.edges)
            if e.ndim != 2 or e.shape[1] != 2:
                raise InvalidInputError(f"edges must be an (e, 2) array, got shape {e.shape}")
            if e.size:
                if e.min() < 0 or e.max() >= n:
                    raise InvalidInputError("edge index out of range")
                if np.any(e[:, 0] == e[:, 1]):
                    raise InvalidInputError("self-loop edge")
        if self.normals is not None:
            lazy = isinstance(self.normals, LazyNormals)
            nrm = self.normals if lazy else freeze("normals", self.normals, np.float64)
            if nrm.shape != (n, 3):
                raise InvalidInputError(f"normals must be an ({n}, 3) array, "
                                        f"got shape {nrm.shape}")
            if not lazy and not np.isfinite(nrm).all():
                raise InvalidInputError("normals must be finite")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def has_faces(self):
        return self.faces is not None and len(self.faces) > 0

    def __reduce__(self):
        # a copy is built anew: read-only arrays, and nothing derived yet
        return Surface, (self.vertices, self.faces, self.edges, self.normals)

    def derived(self, key, build):
        """``build(self)``, built on the first call with ``key`` and kept with
        the surface, which never changes; it is freed with the surface."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]


def _kd_tree(s: Surface):
    """The k-d tree over the surface's points, built on the first query and
    kept with the surface: its k-NN graph, its PCA normals and the closest
    points found on it (:func:`~nrreg.correspond.find_correspondences`) all
    query this one."""
    return s.derived("kd_tree", lambda s: cKDTree(s.vertices))


def _knn_edges(s: Surface):
    """The directed edges from each point to its ``KNN_GRAPH_K`` nearest
    neighbors."""
    n = s.n_vertices
    if n < 2:
        raise DegenerateInputError("need at least 2 points for a k-NN graph")
    k = min(KNN_GRAPH_K + 1, n)
    _, idx = _kd_tree(s).query(s.vertices, k=k)
    # a coincident twin may come before the point itself: drop the point's
    # own index, or its last neighbor where the point is absent
    own = idx == np.arange(n)[:, None]
    own[~own.any(axis=1), -1] = True
    edges = np.column_stack([np.repeat(np.arange(n), k - 1), idx[~own]])
    edges.flags.writeable = False
    return edges


def _face_edges(s: Surface):
    """The read-only :func:`edges_from_faces` of a mesh."""
    edges = edges_from_faces(s.faces)
    edges.flags.writeable = False
    return edges


def surface_edges(s: Surface):
    """The surface graph that geodesics and mesh scale are measured on: the
    edges the caller gave, else a mesh's edges from its faces, else the
    directed edges from each point to its ``KNN_GRAPH_K`` nearest neighbors.
    Derived edges are built on the first call and kept with the surface."""
    if s.edges is not None and len(s.edges) > 0:
        return s.edges
    if s.has_faces:
        return s.derived("edges", _face_edges)
    return s.derived("knn_edges", _knn_edges)


def mean_edge_length(s: Surface):
    """Mean Euclidean length over the surface graph's edges."""
    e = surface_edges(s)
    mean = float(np.mean(np.linalg.norm(s.vertices[e[:, 0]] - s.vertices[e[:, 1]], axis=1)))
    if mean == 0.0:
        raise DegenerateInputError("surface edges have zero mean length")
    return mean


@dataclass
class NormalizationRecord:
    """Centroid shifts and the common scale applied by :func:`normalize_pair`.

    ``scale`` is the reciprocal of the combined bounding-box diagonal after
    centroid alignment, so normalized coordinates are
    ``(p - centroid) * scale``.
    """

    centroid_shift_source: np.ndarray
    centroid_shift_target: np.ndarray
    scale: float

    def normalize(self, points, frame):
        c = self._centroid(frame)
        return (np.asarray(points, dtype=np.float64) - c) * self.scale

    def denormalize(self, points, frame):
        c = self._centroid(frame)
        return np.asarray(points, dtype=np.float64) / self.scale + c

    def _centroid(self, frame):
        if frame == "source":
            return self.centroid_shift_source
        if frame == "target":
            return self.centroid_shift_target
        raise InvalidInputError(f"unknown frame {frame!r}")


def normalize_pair(source: Surface, target: Surface):
    """Center both surfaces and scale to a unit combined bounding-box diagonal.

    Each surface is translated so its own centroid sits at the origin; a
    single scale factor then makes the diagonal of the union bounding box
    (after centering) exactly one.  Returns the two normalized surfaces and a
    record that inverts the mapping.
    """
    if source.n_vertices == 0 or target.n_vertices == 0:
        raise DegenerateInputError("cannot normalize an empty surface")
    cs = source.vertices.mean(axis=0)
    ct = target.vertices.mean(axis=0)
    vs = source.vertices - cs
    vt = target.vertices - ct
    all_pts = np.vstack([vs, vt])
    diag = float(np.linalg.norm(all_pts.max(axis=0) - all_pts.min(axis=0)))
    if diag <= 0.0:
        raise DegenerateInputError("all points coincident; zero bounding-box diagonal")
    scale = 1.0 / diag
    rec = NormalizationRecord(cs, ct, scale)
    return replace(source, vertices=vs * scale), replace(target, vertices=vt * scale), rec


# ---------------------------------------------------------------------------
# normals


def _face_vertex_normals(vertices, faces):
    v0, v1, v2 = (vertices[faces[:, k]] for k in range(3))
    fn = np.cross(v1 - v0, v2 - v0)
    lens = np.linalg.norm(fn, axis=1)
    ok = lens > 0
    fn[ok] /= lens[ok, None]
    # corner 0 of every face, then corner 1, then 2: the order np.add.at
    # would add them in, so every sum is the same to the last bit
    corners = faces.T.ravel()
    acc = np.empty_like(vertices)
    for c in range(3):
        acc[:, c] = np.bincount(corners, np.tile(fn[:, c], 3), minlength=len(vertices))
    lens = np.linalg.norm(acc, axis=1)
    lens[lens == 0] = 1.0
    return acc / lens[:, None]


def _pca_normals(points, k=10, rows=None, tree=None):
    """Unit normals of a point cloud at ``rows`` (every point if None): the
    smallest-eigenvalue direction of the centred covariance of each point's
    k+1 nearest neighbours (itself included).  They are unoriented: each
    point's sign is whatever the eigenvector solver gives.  Each row is the
    same whichever rows it is estimated with.  ``tree`` is a cKDTree over
    ``points``, built here if omitted."""
    k = min(k, len(points) - 1)
    if tree is None:
        tree = cKDTree(points)
    _, idx = tree.query(points if rows is None else points[rows], k=k + 1)
    x, y, z = nbrs = points.T[:, idx]        # (3, rows, k+1) coordinate planes
    nbrs -= nbrs.mean(axis=2, keepdims=True)
    return _smallest_eigenvectors([np.einsum("nk,nk->n", u, v) for u, v in
                                   ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))])


EIGEN_FALLBACK_TOL = 1e-5


def _smallest_eigenvectors(upper):
    """Unit eigenvectors of the smallest eigenvalue of symmetric positive
    semi-definite 3x3 matrices, given as their six distinct entries
    ``(c00, c01, c02, c11, c12, c22)``, each an (n,) array.

    The eigenvalue comes in closed form (O. K. Smith, CACM 1961); the vector
    is the longest cross product of two rows of ``C - lambda I``, which is
    orthogonal to both.  Its error grows as ``|C|^2`` over that length, so
    rows where it is shorter than ``EIGEN_FALLBACK_TOL |C|^2`` go to
    ``np.linalg.eigh``: those where ``C - lambda I`` has rank <= 1 or nearly
    so, because the two smallest eigenvalues are close together or both far
    below the largest (an isotropic or a line-like neighbourhood).
    """
    a, b, c, d, e, f = upper
    m = (a + d + f) / 3.0
    a0, d0, f0 = a - m, d - m, f - m
    p = (a0 * a0 + d0 * d0 + f0 * f0 + 2.0 * (b * b + c * c + e * e)) / 6.0
    q = 0.5 * (a0 * (d0 * f0 - e * e) - b * (b * f0 - c * e) + c * (b * e - c * d0))
    # p = 0 (C = m I) gives NaN here, and its rows go to the fallback
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(np.clip(q / (p * np.sqrt(p)), -1.0, 1.0)) / 3.0
    lam = m + 2.0 * np.sqrt(p) * np.cos(phi + 2.0 * np.pi / 3.0)
    a1, d1, f1 = a - lam, d - lam, f - lam
    # rows (a1, b, c), (b, d1, e), (c, e, f1): cross products 01, 02, 12
    cross = np.array([[b * e - c * d1, c * b - a1 * e, a1 * d1 - b * b],
                      [b * f1 - c * e, c * c - a1 * f1, a1 * e - b * c],
                      [d1 * f1 - e * e, c * e - b * f1, b * e - c * d1]])
    # summed in one order whatever the batch: einsum's order differs for one row
    len2 = cross[:, 0] * cross[:, 0] + cross[:, 1] * cross[:, 1] + cross[:, 2] * cross[:, 2]
    pick = np.argmax(len2, axis=0)
    batch = np.arange(len(a))
    vec = cross[pick, :, batch]              # (n, 3)
    len2 = len2[pick, batch]
    norm2 = a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)
    # written so that NaN lands in the fallback
    weak = ~(len2 > (EIGEN_FALLBACK_TOL * norm2) ** 2)
    vec /= np.sqrt(np.where(weak, 1.0, len2))[:, None]
    if weak.any():
        cov = np.stack([u[weak] for u in (a, b, c, b, d, e, c, e, f)], axis=-1)
        vec[weak] = np.linalg.eigh(cov.reshape(-1, 3, 3))[1][:, :, 0]
    return vec


class LazyNormals(np.lib.mixins.NDArrayOperatorsMixin):
    """The unit normals of a surface as a read-only (n, 3) float64 array
    whose rows are computed on their first read and kept.

    A mesh's rows all come from :func:`_face_vertex_normals` on the first
    read.  A point cloud's come from :func:`_pca_normals` over the cloud's
    k-d tree (:func:`_kd_tree`), each row on its first read, so any read
    gives what one pass over all points gives, to the last bit.  Rows are
    read as from an array: by int, slice, index array or boolean mask,
    optionally with a column key; ``np.asarray`` computes the rest and gives
    all of them, and operators and ufuncs (``-n``, ``n @ R``, ``n * x``)
    take them as that array.  The normals stay bound to ``surface``, the
    surface they were made from.
    """

    dtype = np.dtype(np.float64)
    ndim = 2

    def __init__(self, surface, k):
        if not surface.has_faces and surface.n_vertices < 3:
            raise DegenerateInputError("need at least 3 points for PCA normals")
        self._surface = surface
        self._k = k
        self._values = np.empty((surface.n_vertices, 3))
        self._known = np.zeros(surface.n_vertices, dtype=bool)
        self.shape = self._values.shape

    def __len__(self):
        return self.shape[0]

    def _read(self, key):
        """The values, read-only, with every row that ``key`` reads known."""
        s = self._surface
        if s.has_faces:
            if not self._known.all():
                self._values = _face_vertex_normals(s.vertices, s.faces)
                self._known[:] = True
        else:
            rows = np.atleast_1d(np.arange(len(self))[key[:1] if isinstance(key, tuple) else key])
            todo = np.unique(rows[~self._known[rows]])
            if len(todo):
                self._values[todo] = _pca_normals(s.vertices, self._k, todo, _kd_tree(s))
                self._known[todo] = True
        values = self._values.view()
        values.flags.writeable = False
        return values

    def __getitem__(self, key):
        return self._read(key)[key]

    def __setitem__(self, key, value):
        raise ValueError("assignment destination is read-only")

    def __array__(self, dtype=None, copy=None):
        return np.array(self._read(slice(None)), dtype=dtype, copy=copy)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # every operand, an output too, is taken as the read-only array
        def plain(x):
            return np.asarray(x) if isinstance(x, LazyNormals) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

    def __reduce__(self):
        # a copy is made over a copy of the surface, and computes its rows anew
        return LazyNormals, (self._surface, self._k)


def compute_normals(s: Surface, k=10):
    """``s`` with unit per-vertex normals, as a new surface.

    The normals are a :class:`LazyNormals`, computed on their first read;
    none is computed here.  Meshes get the normalized sum of incident unit
    face normals, every row at the first read.  Raw point clouds get PCA
    normals over their k nearest neighbors (``k`` an integer >= 2), each
    row estimated on its first read over the cloud's one k-d tree, which
    the first read builds.  They are unoriented: a point cloud's normals lie
    along the surface normal, each with an arbitrary sign.  The new surface
    shares what is derived from ``s``, whose points it has.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise InvalidInputError(f"k must be an integer >= 2, got {k!r}")
    out = replace(s, normals=LazyNormals(s, k))
    object.__setattr__(out, "_derived", s._derived)
    return out


# ---------------------------------------------------------------------------
# OBJ


def _obj_arrays(text):
    """Vertices, polygon sizes and 1-based polygon vertex indices of the
    ``v`` and ``f`` records in ``text``, each record type converted as one
    block; ValueError or OverflowError if a record does not convert."""
    # a record's tag is its line's first token.  Taken are the first three
    # tokens after a v ("" where the line has fewer) and the rest of an f
    # line, whose v/vt/vn tokens are then cut at their first slash
    coords = re.findall(r"^[^\S\n]*v(?!\S)[^\S\n]*(\S*)[^\S\n]*(\S*)[^\S\n]*(\S*)", text, re.M)
    polygons = re.findall(r"^[^\S\n]*f(?!\S)([^\n]*)", text, re.M)
    verts = np.array(coords, dtype=np.float64).reshape(len(coords), 3)
    lengths = np.array([len(p.split()) for p in polygons], dtype=np.int64)
    heads = np.array(re.sub(r"/\S*", "", " ".join(polygons)).split(), dtype=np.int64)
    if (lengths < 3).any() or len(heads) != lengths.sum() or (heads <= 0).any():
        raise ValueError("malformed record")
    return verts, lengths, heads


def load_obj(path):
    """Load the ``v`` and ``f`` records of an OBJ file, fan-triangulating
    polygons; all other records (``vn``, ``vt``, ``usemtl``, ...) are ignored.

    A record that does not convert (too few values, a non-number, a face
    index below 1 or beyond int64) raises :class:`FormatError` with its line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    try:
        verts, lengths, heads = _obj_arrays(text)
    except (ValueError, OverflowError):
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                _obj_arrays(line)
            except (ValueError, OverflowError):
                raise FormatError(f"malformed record {line.strip()!r}", path, lineno) from None
    if len(verts) == 0:
        raise InvalidInputError(f"{path}: no vertices")
    faces = None
    if len(lengths):
        faces = _fan(lengths, heads - 1)
        if faces.max() >= len(verts):
            raise FormatError("face index out of range", path)
    return Surface(verts, faces)


# ---------------------------------------------------------------------------
# PLY
#
# A body is read one element at a time, as one block: every row of the
# element taken at once as an array with one column per value.  That takes
# each row to have the first row's list lengths, which is checked; rows that
# differ in length (triangles mixed with quads) are walked one by one.
#
# One reader, _BinaryBody, reads values by position: a binary body's as
# packed, an ascii body's once the whole body is converted in one pass to
# float64 values, read as doubles.  That whole-body path is the reference.
# An ascii body written one row per line is first split into lines, each
# element's block converted from its own lines in one call: int64 where
# every type of the element is an integer (faces), float64 otherwise and for
# the vertex coordinates.  This line path gives the same values, and hands
# every body it cannot convert (rows across lines, blank lines, rows of
# differing length, an integer written as 2.0, a token that is not a number)
# to the whole-body path, which raises the error if there is one.

_PLY_TYPES = {
    "char": "b", "int8": "b",
    "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h",
    "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i",
    "uint": "I", "uint32": "I",
    "float": "f", "float32": "f",
    "double": "d", "float64": "d",
}
_PLY_SIZES = {t: struct.calcsize("<" + c) for t, c in _PLY_TYPES.items()}
_PLY_UNPACK = {t: struct.Struct("<" + c).unpack_from for t, c in _PLY_TYPES.items()}

_FACE_LISTS = ("vertex_indices", "vertex_index")


def _parse_ply_header(fh, path):
    line = fh.readline().decode("ascii", errors="replace").strip()
    if line != "ply":
        raise FormatError("missing 'ply' magic", path, 1)
    fmt = None
    elements = []   # list of (name, count, [(prop_name, type, list_count_type|None)])
    lineno = 1
    while True:
        raw = fh.readline()
        if not raw:
            raise FormatError("unterminated header", path, lineno)
        lineno += 1
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        parts = line.split()
        try:
            if parts[0] == "format":
                fmt = parts[1]
                if fmt not in ("ascii", "binary_little_endian"):
                    raise FormatError(f"unsupported format {fmt!r}", path, lineno)
            elif parts[0] == "element":
                count = int(parts[2])
                if count < 0:
                    raise FormatError("negative element count", path, lineno)
                if any(parts[1] == name for name, _, _ in elements):
                    raise FormatError(f"duplicate element {parts[1]!r}", path, lineno)
                elements.append((parts[1], count, []))
            elif parts[0] == "property":
                if not elements:
                    raise FormatError("property before element", path, lineno)
                if parts[1] == "list":
                    prop = (parts[4], parts[3], parts[2])
                    if prop[2] not in _PLY_TYPES or _PLY_TYPES[prop[2]] in "fd":
                        raise FormatError("list length type is not an integer", path, lineno)
                else:
                    prop = (parts[2], parts[1], None)
                if prop[1] not in _PLY_TYPES:
                    raise FormatError(f"unknown property type {prop[1]!r}", path, lineno)
                if any(prop[0] == p for p, _, _ in elements[-1][2]):
                    raise FormatError(f"duplicate property {prop[0]!r}", path, lineno)
                elements[-1][2].append(prop)
            elif parts[0] == "end_header":
                break
            else:
                raise FormatError(f"unknown header record {parts[0]!r}", path, lineno)
        except (IndexError, ValueError):
            raise FormatError(f"malformed header record {line!r}", path, lineno) from None
    if fmt is None:
        raise FormatError("header has no format record", path)
    return fmt, elements


def _ascii_values(data):
    """The whitespace-separated values of an ascii body, converted to float64
    in one pass.  A token that is not a number raises ValueError, wherever
    it lies."""
    # the body as one line, which loadtxt splits at any whitespace (and warns
    # of if it holds no value)
    text = data.translate(bytes.maketrans(b"\r\n", b"  ")).decode("ascii", errors="replace")
    return (np.loadtxt([text], comments=None, ndmin=1)
            if text and not text.isspace() else np.empty(0))


class _BinaryBody:
    """Little-endian values packed back to back; a value's position is the
    offset of its first byte."""

    def __init__(self, data):
        self.data = data
        self.end = len(data)

    def length(self, p, ltype):
        (n,) = _PLY_UNPACK[ltype](self.data, p)
        # an ascii body's lengths are read as doubles
        if not float(n).is_integer():
            raise ValueError("list length is not an integer")
        return int(n)

    def block(self, pos, types, count):
        row = np.dtype([(f"v{k}", "<" + _PLY_TYPES[t]) for k, t in enumerate(types)])
        rows = np.frombuffer(self.data, row, count, pos)
        out = np.empty((count, len(types)))
        # a float32 signalling NaN, in the file or in bytes read across rows
        # whose list lengths differ, warns as the cast quiets it
        with np.errstate(invalid="ignore"):
            for k, name in enumerate(row.names):
                out[:, k] = rows[name]
        return out

    def take(self, offsets, ptype):
        size = _PLY_SIZES[ptype]
        # the value that starts at each byte, unaligned as offsets may be
        at = np.ndarray((max(self.end - size + 1, 0),), "<" + _PLY_TYPES[ptype], self.data, 0, (1,))
        with np.errstate(invalid="ignore"):      # as in block
            return at[np.asarray(offsets, dtype=np.int64)].astype(np.float64)


def _walk(body, pos, count, props):
    """Row by row, the position of each property's first value in ``count``
    rows from ``pos``, the lengths of each list, and the position after the
    rows."""
    starts = {p: [] for p, _, _ in props}
    lengths = {p: [] for p, _, ltype in props if ltype}
    steps = [(starts[p], lengths.get(p), _PLY_SIZES[ptype], ltype) for p, ptype, ltype in props]
    for _ in range(count):
        for first, lens, step, ltype in steps:
            n = 1
            if ltype is not None:
                n = body.length(pos, ltype)
                if n < 0:
                    raise ValueError("negative list length")
                lens.append(n)
                pos += _PLY_SIZES[ltype]
            if pos + n * step > body.end:
                raise IndexError("body ends inside an element")
            first.append(pos)
            pos += n * step
    return starts, lengths, pos


def _split_rows(rows, props):
    """Columns of a block whose rows all have the first row's list lengths,
    or None if one differs or the rows hold more or fewer values."""
    scalars, lists, c = {}, {}, 0
    for pname, _, ltype in props:
        if c >= rows.shape[1]:
            return None
        if ltype is None:
            scalars[pname] = rows[:, c]
            c += 1
        else:
            n = rows[0, c]
            if not (n >= 0 and float(n).is_integer() and (rows[:, c] == n).all()):
                return None
            n = int(n)
            lists[pname] = (np.full(len(rows), n), rows[:, c + 1:c + 1 + n].ravel())
            c += 1 + n
    return (scalars, lists) if c == rows.shape[1] else None


def _read_element(body, pos, count, props):
    """Scalar and list columns of the element whose rows start at ``pos``, and
    the position after it.  A scalar property reads as a (count,) float64
    array, a list property as its (count,) lengths and its values end to end."""
    if count == 0 or not props:
        return ({}, {}), pos
    _, lengths, first_end = _walk(body, pos, 1, props)
    end = pos + count * (first_end - pos)
    if end <= body.end:
        types = []
        for pname, ptype, ltype in props:
            types += [ptype] if ltype is None else [ltype] + [ptype] * lengths[pname][0]
        cols = _split_rows(body.block(pos, types, count), props)
        if cols is not None:
            return cols, end
    starts, lengths, end = _walk(body, pos, count, props)
    scalars = {p: body.take(starts[p], t) for p, t, ltype in props if ltype is None}
    lists = {}
    for p, t, ltype in props:
        if ltype is not None:
            n = np.array(lengths[p], dtype=np.int64)
            # the offset of each value: its row's start plus its rank in the row
            rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            lists[p] = n, body.take(np.repeat(starts[p], n) + _PLY_SIZES[t] * rank, t)
    return (scalars, lists), end


def _read_body(data, fmt, elements, path):
    """Scalar and list columns of every element, read by position from the
    whole body (see :func:`_read_element`).  An ascii body is first converted
    whole to float64 (:func:`_ascii_values`), and its values are then read
    as doubles packed back to back."""
    if fmt == "ascii":
        try:
            data = _ascii_values(data).tobytes()
        except ValueError:
            raise FormatError("non-numeric value in the body", path) from None
        elements = [(name, count, [(p, "double", ltype and "double") for p, _, ltype in props])
                    for name, count, props in elements]
    body = _BinaryBody(data)
    cols, pos = {}, 0
    for name, count, props in elements:
        try:
            cols[name], pos = _read_element(body, pos, count, props)
        except (IndexError, struct.error):
            raise FormatError(f"body ends inside element {name!r}", path) from None
        except ValueError:
            raise FormatError(f"bad value in element {name!r}", path) from None
    return cols


def _line_block(lines, count, props, dtype):
    """Scalar and list columns of an element whose ``count`` rows are the
    ``lines``, one row per line, converted as one ``dtype`` block; None if
    they are not."""
    # loadtxt warns of a block that holds no value
    if not (lines and lines[0].strip()):
        return None
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, so a short block had one
    return _split_rows(rows, props) if len(rows) == count else None


def _read_lines(data, elements):
    """Scalar and list columns of every element of an ascii body written one
    row per line (see :func:`_line_block`), or None if it is laid out
    otherwise.  The lines of each element hold exactly its values, so they
    are the values the whole-body path reads."""
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return None
    cols, pos = {}, 0
    for name, count, props in elements:
        if count == 0 or not props:
            cols[name] = {}, {}
            continue
        # the vertex scalars are coordinates, kept as float64 so that -0 keeps its sign
        integer = name != "vertex" and all(_PLY_TYPES[t] in "bBhHiI" for _, t, _ in props)
        cols[name] = _line_block(lines[pos:pos + count], count, props,
                                 np.int64 if integer else np.float64)
        if cols[name] is None:
            return None
        pos += count
    # the whole-body path also reads what follows the last element, and
    # fails on a token there that is not a number
    if any(line.strip() for line in lines[pos:]):
        return None
    return cols


def _fan(lengths, indices):
    """Fan triangles (v0, vj, vj+1) of polygons given by their sizes and their
    vertex indices end to end, in polygon order."""
    if (lengths == 3).all():
        return indices.reshape(-1, 3)
    ntri = np.maximum(lengths - 2, 0)
    first = np.repeat(np.cumsum(lengths) - lengths, ntri)
    j = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(ntri) - ntri, ntri)
    return np.column_stack([indices[first], indices[j], indices[j + 1]])


def load_ply(path):
    """Load an ascii or binary_little_endian PLY surface.

    Polygons are fan-triangulated, and ``nx``/``ny``/``nz`` vertex properties
    become normals.  A malformed file raises :class:`FormatError`, and so
    does a face index that is not a whole number.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh, path)
        data = fh.read()
    cols = _read_lines(data, elements) if fmt == "ascii" else None
    if cols is None:
        cols = _read_body(data, fmt, elements, path)
    counts = {name: count for name, count, _ in elements}

    if not counts.get("vertex"):
        raise InvalidInputError(f"{path}: no vertices")
    scalars = cols["vertex"][0]
    if not all(k in scalars for k in ("x", "y", "z")):
        raise FormatError("vertex element lacks x, y or z", path)
    verts = np.column_stack([scalars["x"], scalars["y"], scalars["z"]])
    normals = None
    if all(k in scalars for k in ("nx", "ny", "nz")):
        normals = np.column_stack([scalars["nx"], scalars["ny"], scalars["nz"]])
    faces = None
    if counts.get("face"):
        lists = cols["face"][1]
        key = next((k for k in _FACE_LISTS if k in lists), None)
        if key is None:
            raise FormatError("face element has no vertex_indices list", path)
        tri = _fan(*lists[key])
        # a float list may hold 2.0, which Surface takes as 2, but not 1.9
        if tri.dtype.kind == "f" and not (tri == np.trunc(tri)).all():
            raise FormatError("non-integral vertex index in element 'face'", path)
        if not ((tri >= 0) & (tri < len(verts))).all():
            raise FormatError("face index out of range", path)
        faces = tri.astype(np.int64, copy=False)
    return Surface(verts, faces, normals=normals)


def save_ply(s: Surface, path, colors=None, binary=False):
    """Write a surface as PLY; ``colors`` is an optional (n, 3) uint8 array."""
    n = s.n_vertices
    # (PLY type, property names, values) of each per-vertex triple
    blocks = [("float", "x y z", s.vertices)]
    if s.normals is not None:
        blocks.append(("float", "nx ny nz", s.normals))
    if colors is not None:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise InvalidInputError("colors must be (n, 3)")
        blocks.append(("uchar", "red green blue", colors))
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}"]
    header += [f"property {t} {name}" for t, names, _ in blocks for name in names.split()]
    if s.faces is not None:
        header += [f"element face {len(s.faces)}", "property list uchar int vertex_indices"]
    header.append("end_header")

    if binary:
        rows = np.empty(n, [(f"p{k}", "<" + _PLY_TYPES[t], (3,)) for k, (t, _, _) in enumerate(blocks)])
        with np.errstate(over="ignore"):
            for k, (_, _, values) in enumerate(blocks):
                rows[f"p{k}"] = values
        if not all(np.isfinite(rows[f]).all() for f in rows.dtype.names):
            raise InvalidInputError("values beyond the float32 range of binary PLY")
        body = [rows.tobytes()]
        if s.faces is not None:
            tri = np.empty(len(s.faces), [("n", "u1"), ("v", "<i4", (3,))])
            tri["n"] = 3
            tri["v"] = s.faces
            body.append(tri.tobytes())
    else:
        row = " ".join(("%d" if t == "uchar" else "%.9g") for t, _, _ in blocks for _ in range(3))
        values = np.column_stack([v for _, _, v in blocks]).ravel().tolist()
        text = (row + "\n") * n % tuple(values)
        if s.faces is not None:
            text += "3 %d %d %d\n" * len(s.faces) % tuple(s.faces.ravel().tolist())
        body = [(text or "\n").encode("ascii")]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.writelines(body)


def load_surface(path):
    """Load an OBJ or PLY surface, by the file suffix."""
    fmt = str(path).rsplit(".", 1)[-1].lower()
    if fmt == "obj":
        return load_obj(path)
    if fmt == "ply":
        return load_ply(path)
    raise InvalidInputError(f"unknown format {fmt!r}")


def error_colors(errors):
    """Blue-to-red linear ramp over [0, max(errors)] as (n, 3) uint8 RGB.

    Zero error maps to pure blue (0, 0, 255), the maximum error to pure red
    (255, 0, 0); green stays zero.  An all-zero error field is all blue.
    """
    e = np.asarray(errors, dtype=np.float64)
    mx = e.max() if e.size else 0.0
    t = e / mx if mx > 0 else np.zeros_like(e)
    rgb = np.zeros((len(e), 3), dtype=np.uint8)
    rgb[:, 0] = np.clip(np.round(255 * t), 0, 255).astype(np.uint8)
    rgb[:, 2] = np.clip(np.round(255 * (1 - t)), 0, 255).astype(np.uint8)
    return rgb


def write_error_mesh(s: Surface, errors, path):
    """Write ``s`` as a PLY with per-vertex RGB encoding the error magnitudes."""
    errors = np.asarray(errors, dtype=np.float64)
    if len(errors) != s.n_vertices:
        raise InvalidInputError("one error value per vertex required")
    save_ply(s, path, colors=error_colors(errors))
