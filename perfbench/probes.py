"""Known-defect probes: small inputs that nrreg mishandles today.

Every run executes every probe and records its outcome by name; the
outcomes are reported, not counted as failed registrations.  When nrreg
learns to handle an input, its probe's outcome changes to ``ok`` or to a
typed ``NrregError``.
"""

from __future__ import annotations

import numpy as np

from nrreg import NrregError, Surface, compute_normals, normalize_pair, register

from .inputs import normals_agree, wavy_grid


def _register_pair(source, target):
    source, target = compute_normals(source), compute_normals(target)
    s_n, t_n, _ = normalize_pair(source, target)
    return register(compute_normals(s_n), compute_normals(t_n))


def point_cloud_source():
    """A faceless point-cloud source, which the README says is supported."""
    grid = wavy_grid(10, 10)
    return _register_pair(Surface(grid.vertices), grid)


def nan_vertex():
    """A source with one NaN coordinate; should fail with a typed error."""
    grid = wavy_grid(10, 10)
    v = grid.vertices.copy()
    v[5, 0] = np.nan
    return _register_pair(Surface(v, grid.faces), wavy_grid(10, 10))


def cloud_normals_flipped():
    """A mesh source whose normals point against the PCA normals nrreg
    estimates for a point-cloud target of the same sheet; rigid ICP's normal
    test then rejects every pair."""
    grid = wavy_grid(12, 12)
    cloud = Surface(grid.vertices)
    source = grid
    if normals_agree(source, cloud):
        source = Surface(grid.vertices, grid.faces[:, ::-1].copy())
    return _register_pair(source, cloud)


PROBES = {
    "point-cloud-source": point_cloud_source,
    "nan-vertex": nan_vertex,
    "cloud-normals-flipped": cloud_normals_flipped,
}


def run_probes():
    """Run every probe; returns ``{name: {"outcome": ..., "typed": bool}}``."""
    out = {}
    for name, probe in PROBES.items():
        try:
            probe()
        except Exception as exc:  # recording what escapes is the probe's point
            kind = f"{type(exc).__module__}.{type(exc).__qualname__}"
            out[name] = {"outcome": f"{kind}: {exc}", "typed": isinstance(exc, NrregError)}
        else:
            out[name] = {"outcome": "ok", "typed": True}
    return out
