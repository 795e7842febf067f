"""Spans around calls into nrreg's public functions.

``instrument(tracer)`` replaces each traced function with a wrapper in every
module that looks the name up (for example ``geodesic_from`` both in
``nrreg.graph`` and in ``nrreg.geodesic``, where ``MultiSourceField`` calls
it), and puts the originals back on exit.  A span records its name, start,
end, enclosing span and registration id; spans stay in memory until the run
writes them out.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                  # index of the enclosing span, -1 at top level
    reg: str                     # registration id; "setup" for input generation
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one process; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.reg = "setup"
        self._open: list[int] = []
        self._alloc = None       # [live bytes before this window, peak] during a graph build

    @contextlib.contextmanager
    def span(self, name):
        sp = Span(name, math.nan, math.nan, self._open[-1] if self._open else -1, self.reg)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    # -- allocation peak of a graph build -------------------------------------
    # tracemalloc slows the Python fast-marching loop about eightfold, so it
    # is stopped for the duration of each geodesic call.  Blocks allocated
    # inside those calls (O(n) per call, freed on return except the returned
    # field) are therefore not counted.

    @contextlib.contextmanager
    def alloc_window(self, sp):
        self._alloc = [0, 0]
        tracemalloc.start()
        try:
            yield
        finally:
            self._alloc_mark()
            tracemalloc.stop()
            sp.counts["alloc_peak_bytes"] = self._alloc[1]
            self._alloc = None

    def _alloc_mark(self):
        current, peak = tracemalloc.get_traced_memory()
        base = self._alloc[0]
        self._alloc[1] = max(self._alloc[1], base + peak)
        return base + current

    @contextlib.contextmanager
    def alloc_paused(self):
        if self._alloc is None:
            yield
            return
        self._alloc[0] = self._alloc_mark()
        tracemalloc.stop()
        try:
            yield
        finally:
            tracemalloc.start()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((spans[k].start, spans[k].end) for k in kids):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(sp.end - sp.start - covered)
    return out


# ---------------------------------------------------------------------------
# what is wrapped, and where it is looked up

def _count_reached(sp, args, kwargs, result):
    sp.counts["reached"] = int(np.count_nonzero(np.isfinite(result.distances)))


def _count_queries(sp, args, kwargs, result):
    sp.counts["queries"] = len(args[0] if args else kwargs["queries"])


def _count_graph(sp, args, kwargs, g):
    sp.counts.update(nodes=g.n_nodes, edges=len(g.node_edges),
                     influence_nnz=int(g.influence.nnz),
                     fallback_points=len(g.fallback_points))


def _count_accepted(sp, args, kwargs, result):
    sp.counts["accepted"] = int(result is not None)


# (span name, lookup sites as "module:attribute", counter)
TRACED = [
    ("mesh.load", ["nrreg.mesh:load_surface"], None),
    ("mesh.normals", ["nrreg.mesh:compute_normals", "nrreg.evaluate:compute_normals"], None),
    ("mesh.normalize", ["nrreg.mesh:normalize_pair",
                        "nrreg.mesh:NormalizationRecord.normalize",
                        "nrreg.mesh:NormalizationRecord.denormalize"], None),
    ("mesh.save", ["nrreg.mesh:save_ply", "nrreg.evaluate:save_ply",
                   "nrreg.solver:RegistrationResult.write_trace_csv"], None),
    ("geodesic", ["nrreg.geodesic:geodesic_from", "nrreg.graph:geodesic_from",
                  "nrreg.evaluate:geodesic_from"], _count_reached),
    ("graph.build", ["nrreg.graph:build_graph", "nrreg.solver:build_graph"], _count_graph),
    ("graph.sample", ["nrreg.graph:sample_nodes_pca",
                      "nrreg.graph:sample_nodes_farthest"], None),
    ("graph.influence", ["nrreg.graph:influence_weights"], None),
    ("icp", ["nrreg.solver:rigid_icp_init"], None),
    ("closest", ["nrreg.solver:find_correspondences",
                 "nrreg.correspond:find_correspondences"], _count_queries),
    ("transform", ["nrreg.graph:transform_points", "nrreg.solver:transform_points",
                   "nrreg.evaluate:transform_points"], None),
    ("surrogate", ["nrreg.solver:assemble_surrogate"], None),
    ("h0.assemble", ["nrreg.energy:SurrogateSystem.assemble_H0"], None),
    ("h0.factor", ["nrreg.solver:splu"], None),
    ("energy.surrogate", ["nrreg.energy:SurrogateSystem.energy"], None),
    ("energy.gradient", ["nrreg.energy:SurrogateSystem.gradient"], None),
    ("energy.total", ["nrreg.solver:total_energy"], None),
    ("inner", ["nrreg.solver:solve_inner"], None),
    ("inner.line_search", ["nrreg.solver:line_search"], _count_accepted),
    ("register", ["nrreg.solver:register"], None),
]


def _lookup(site):
    modname, attr = site.split(":")
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap(tracer, name, fn, counter):
    # geodesic calls run with tracemalloc paused; a graph build is the window
    # whose allocation peak is recorded
    pause = name == "geodesic"
    window = name == "graph.build"

    def wrapper(*args, **kwargs):
        with tracer.alloc_paused() if pause else contextlib.nullcontext(), \
                tracer.span(name) as sp:
            with tracer.alloc_window(sp) if window else contextlib.nullcontext():
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(sp, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for name, sites, counter in TRACED:
            for site in sites:
                owner, attr = _lookup(site)
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, _wrap(tracer, name, fn, counter))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
