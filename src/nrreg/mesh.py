"""Surfaces: loading, writing, normalization and normal estimation.

Supported formats are OBJ (``v``/``f`` records, 1-based indices) and PLY
(ascii and binary_little_endian).  A surface is a vertex array with optional
triangle faces; edges are always derived from the faces when present.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree, breadth_first_order
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, FormatError, InvalidInputError

KNN_GRAPH_K = 8


def edges_from_faces(faces):
    """Unique undirected edges (sorted index pairs) of a triangle array."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


@dataclass
class Surface:
    """A sampled surface: points, optional triangles, derived edges, normals."""

    vertices: np.ndarray                    # (n, 3) float64
    faces: np.ndarray | None = None         # (f, 3) int64 or None
    edges: np.ndarray = field(default=None)  # (e, 2) int64, derived if None
    normals: np.ndarray | None = None       # (n, 3) unit vectors or None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise InvalidInputError("vertices must be an (n, 3) array")
        if not np.isfinite(self.vertices).all():
            raise InvalidInputError("vertices must be finite")
        n = len(self.vertices)
        if self.faces is not None:
            self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
            if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
                raise InvalidInputError("face index out of range")
        if self.edges is None:
            if self.faces is not None:
                self.edges = edges_from_faces(self.faces)
            else:
                self.edges = np.empty((0, 2), dtype=np.int64)
        else:
            self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
            if self.edges.size:
                if self.edges.min() < 0 or self.edges.max() >= n:
                    raise InvalidInputError("edge index out of range")
                if np.any(self.edges[:, 0] == self.edges[:, 1]):
                    raise InvalidInputError("self-loop edge")
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64)
            if not np.isfinite(self.normals).all():
                raise InvalidInputError("normals must be finite")

    @property
    def n_vertices(self):
        return len(self.vertices)

    def copy(self):
        return Surface(
            self.vertices.copy(),
            None if self.faces is None else self.faces.copy(),
            self.edges.copy(),
            None if self.normals is None else self.normals.copy(),
        )


def surface_edges(s: Surface):
    """The surface graph that geodesics and mesh scale are measured on: the
    surface's own edges, or for a raw point cloud the directed edges from
    each point to its ``KNN_GRAPH_K`` nearest neighbors."""
    if len(s.edges) > 0:
        return s.edges
    n = s.n_vertices
    if n < 2:
        raise DegenerateInputError("need at least 2 points for a k-NN graph")
    k = min(KNN_GRAPH_K + 1, n)
    _, idx = cKDTree(s.vertices).query(s.vertices, k=k)
    # a coincident twin may come before the point itself: drop the point's
    # own index, or its last neighbor where the point is absent
    own = idx == np.arange(n)[:, None]
    own[~own.any(axis=1), -1] = True
    return np.column_stack([np.repeat(np.arange(n), k - 1), idx[~own]])


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
    out_s = source.copy()
    out_s.vertices = vs * scale
    out_t = target.copy()
    out_t.vertices = vt * scale
    return out_s, out_t, rec


# ---------------------------------------------------------------------------
# normals


def _face_vertex_normals(vertices, faces):
    v0, v1, v2 = (vertices[faces[:, k]] for k in range(3))
    fn = np.cross(v1 - v0, v2 - v0)
    lens = np.linalg.norm(fn, axis=1)
    ok = lens > 0
    fn[ok] /= lens[ok, None]
    acc = np.zeros_like(vertices)
    for k in range(3):
        np.add.at(acc, faces[:, k], fn)
    lens = np.linalg.norm(acc, axis=1)
    lens[lens == 0] = 1.0
    return acc / lens[:, None]


def _pca_normals(points, k=10):
    n = len(points)
    if n < 3:
        raise DegenerateInputError("need at least 3 points for PCA normals")
    k = min(k, n - 1)
    tree = cKDTree(points)
    _, idx = tree.query(points, k=k + 1)
    nbrs = points[idx]                       # (n, k+1, 3)
    nbrs = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", nbrs, nbrs)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]                  # smallest-eigenvalue direction

    # Orient consistently: propagate sign over a Euclidean MST.
    d, j = tree.query(points, k=min(7, n))
    rows = np.repeat(np.arange(n), j.shape[1])
    graph = coo_matrix((d.ravel() + 1e-12, (rows, j.ravel())), shape=(n, n))
    mst = minimum_spanning_tree(graph)
    sym = mst + mst.T
    order, preds = breadth_first_order(sym, 0, directed=False)
    _orient_along_tree(normals, order, preds)
    return normals


def _orient_along_tree(normals, order, preds):
    """Orient normals in place as a pass in BFS order would: a vertex turns
    iff its dot with its parent's already oriented normal is negative, so a
    dot of exactly 0 never turns it.

    Turning a normal negates its dots exactly, so a vertex's final sign is the
    product of the signs of the unoriented dots on its way up to the nearest
    vertex that keeps its own: the root, an unreached vertex, or one whose dot
    is 0.  Pointer jumping composes those products.  A dot small enough for a
    vectorised sum to get its sign wrong is recomputed with the pass's own
    3-vector dot."""
    child = order[1:]
    parent = preds[child]
    dots = np.einsum("ij,ij->i", normals[child], normals[parent])
    for k in np.flatnonzero(np.abs(dots) < 1e-9):
        dots[k] = np.dot(normals[child[k]], normals[parent[k]])
    linked = dots != 0
    up = np.arange(len(normals))
    up[child[linked]] = parent[linked]
    sign = np.ones(len(normals))
    sign[child[dots < 0]] = -1.0
    while not np.array_equal(up[up], up):
        sign *= sign[up]
        up = up[up]
    normals *= sign[:, None]


def compute_normals(s: Surface, k=10):
    """Return a copy of ``s`` with unit per-vertex normals.

    Meshes get the normalized sum of incident unit face normals; raw point
    clouds fall back to PCA over k-nearest neighbors with the orientation
    made globally consistent by propagation along a spanning tree.
    """
    out = s.copy()
    if s.faces is not None and len(s.faces) > 0:
        out.normals = _face_vertex_normals(s.vertices, s.faces)
    else:
        out.normals = _pca_normals(s.vertices, k=k)
    return out


# ---------------------------------------------------------------------------
# OBJ


def load_obj(path):
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise FormatError("vertex needs 3 coordinates", path, lineno)
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise FormatError("bad vertex coordinate", path, lineno) from None
            elif tag == "f":
                if len(parts) < 4:
                    raise FormatError("face needs at least 3 indices", path, lineno)
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise FormatError(f"bad face index {head!r}", path, lineno) from None
                    if i <= 0:
                        raise FormatError(f"face index {i} is not 1-based positive", path, lineno)
                    idx.append(i - 1)
                for a, b in zip(idx[1:-1], idx[2:]):  # fan-triangulate
                    faces.append([idx[0], a, b])
            # all other records (vn, vt, usemtl, ...) are ignored
    if not vertices:
        raise InvalidInputError(f"{path}: no vertices")
    verts = np.array(vertices, dtype=np.float64)
    farr = np.array(faces, dtype=np.int64) if faces else None
    if farr is not None and farr.size and farr.max() >= len(verts):
        raise FormatError("face index out of range", path)
    return Surface(verts, farr)


def save_obj(s: Surface, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in s.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        if s.faces is not None:
            for f in s.faces:
                fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


# ---------------------------------------------------------------------------
# PLY

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
        if parts[0] == "format":
            fmt = parts[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise FormatError(f"unsupported format {fmt!r}", path, lineno)
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise FormatError("property before element", path, lineno)
            if parts[1] == "list":
                elements[-1][2].append((parts[4], parts[3], parts[2]))
            else:
                elements[-1][2].append((parts[2], parts[1], None))
        elif parts[0] == "end_header":
            break
        else:
            raise FormatError(f"unknown header record {parts[0]!r}", path, lineno)
    if fmt is None:
        raise FormatError("header has no format record", path)
    return fmt, elements


def load_ply(path):
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh, path)
        data = {}
        if fmt == "ascii":
            text = fh.read().decode("ascii", errors="replace").split()
            pos = 0
            for name, count, props in elements:
                rows = []
                for _ in range(count):
                    row = {}
                    for pname, ptype, ltype in props:
                        if ltype is None:
                            row[pname] = float(text[pos]); pos += 1
                        else:
                            cnt = int(text[pos]); pos += 1
                            row[pname] = [float(text[pos + k]) for k in range(cnt)]
                            pos += cnt
                    rows.append(row)
                data[name] = rows
        else:
            for name, count, props in elements:
                rows = []
                for _ in range(count):
                    row = {}
                    for pname, ptype, ltype in props:
                        if ltype is None:
                            code = _PLY_TYPES[ptype]
                            (val,) = struct.unpack("<" + code, fh.read(struct.calcsize(code)))
                            row[pname] = float(val)
                        else:
                            ccode = _PLY_TYPES[ltype]
                            (cnt,) = struct.unpack("<" + ccode, fh.read(struct.calcsize(ccode)))
                            icode = _PLY_TYPES[ptype]
                            sz = struct.calcsize(icode)
                            row[pname] = list(struct.unpack("<" + icode * cnt, fh.read(sz * cnt)))
                    rows.append(row)
                data[name] = rows

    if "vertex" not in data or not data["vertex"]:
        raise InvalidInputError(f"{path}: no vertices")
    vrows = data["vertex"]
    verts = np.array([[r["x"], r["y"], r["z"]] for r in vrows], dtype=np.float64)
    normals = None
    if all(k in vrows[0] for k in ("nx", "ny", "nz")):
        normals = np.array([[r["nx"], r["ny"], r["nz"]] for r in vrows], dtype=np.float64)
    faces = None
    if "face" in data and data["face"]:
        tri = []
        for r in data["face"]:
            idx = [int(i) for i in r["vertex_indices"]]
            for a, b in zip(idx[1:-1], idx[2:]):
                tri.append([idx[0], a, b])
        faces = np.array(tri, dtype=np.int64)
        if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
            raise FormatError("face index out of range", path)
    return Surface(verts, faces, normals=normals)


def save_ply(s: Surface, path, colors=None, binary=False):
    """Write a surface as PLY; ``colors`` is an optional (n, 3) uint8 array."""
    n = s.n_vertices
    has_n = s.normals is not None
    has_c = colors is not None
    if has_c:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise InvalidInputError("colors must be (n, 3)")
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    if has_n:
        header += ["property float nx", "property float ny", "property float nz"]
    if has_c:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    nf = 0 if s.faces is None else len(s.faces)
    if s.faces is not None:
        header += [f"element face {nf}",
                   "property list uchar int vertex_indices"]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            for i in range(n):
                fh.write(struct.pack("<3f", *s.vertices[i]))
                if has_n:
                    fh.write(struct.pack("<3f", *s.normals[i]))
                if has_c:
                    fh.write(struct.pack("<3B", *colors[i]))
            if s.faces is not None:
                for f in s.faces:
                    fh.write(struct.pack("<B3i", 3, *f))
        else:
            lines = []
            for i in range(n):
                parts = [f"{x:.9g}" for x in s.vertices[i]]
                if has_n:
                    parts += [f"{x:.9g}" for x in s.normals[i]]
                if has_c:
                    parts += [str(int(x)) for x in colors[i]]
                lines.append(" ".join(parts))
            if s.faces is not None:
                for f in s.faces:
                    lines.append(f"3 {f[0]} {f[1]} {f[2]}")
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


def load_surface(path, fmt=None):
    """Load an OBJ or PLY surface; the format defaults to the file suffix."""
    if fmt is None:
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
