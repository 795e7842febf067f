"""One registration from input files to written output, and its checks.

The steps are those of ``nrreg register``: load both surfaces, estimate
normals, normalize the pair, register, denormalize, write ``result.ply`` and
``trace.csv``.  Every nrreg function is called through its module so that
the tracing wrappers, when installed, see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nrreg import evaluate, mesh, solver

REASON = re.compile(r"stage \d+: (converged|i_max)")


@dataclass
class Case:
    """Inputs of one registration."""

    key: int                            # position in the workload's input cycle
    source: Path
    target: Path
    gt: np.ndarray                      # ground-truth source positions, input frame
    params: solver.SolverParams
    rmse_ceiling: float                 # normalized RMSE above which it fails
    graph: object = None                # reused deformation graph, if any
    frame: object = None                # fixed NormalizationRecord, if any
    initial_state: np.ndarray | None = None


@dataclass
class Outcome:
    """Timing and checks of one registration."""

    key: int
    seconds: float
    rmse: float | None = None
    ref_s: float = 0.0                  # host speed reference around it
    trace_sha256: str = ""
    outer_iters: int = 0
    stages: int = 0
    i_max_stages: int = 0
    error: str = ""                     # empty when every check passed

    @property
    def ok(self):
        return not self.error


def _normalize(case, source, target):
    if case.frame is None:
        return mesh.normalize_pair(source, target)
    rec = case.frame
    s_n = mesh.Surface(rec.normalize(source.vertices, "source"), source.faces, source.edges)
    t_n = mesh.Surface(rec.normalize(target.vertices, "source"), target.faces, target.edges)
    return s_n, t_n, rec


def _register_files(case, out_dir):
    source = mesh.compute_normals(mesh.load_surface(case.source))
    target = mesh.compute_normals(mesh.load_surface(case.target))
    s_n, t_n, rec = _normalize(case, source, target)
    s_n = mesh.compute_normals(s_n)
    t_n = mesh.compute_normals(t_n)
    result = solver.register(s_n, t_n, case.params, graph=case.graph,
                             initial_state=case.initial_state)
    frame = "target" if case.frame is None else "source"
    aligned = rec.denormalize(result.transformed_source, frame)
    # reusing the source's edges keeps the benchmark's own glue out of the timing
    mesh.save_ply(mesh.Surface(aligned, source.faces, source.edges), out_dir / "result.ply")
    result.write_trace_csv(out_dir / "trace.csv")
    return result, aligned, rec


def run_case(case: Case, out_dir: Path, tracer=None, reg_id=""):
    """Register one case, time it, and check its output.

    Returns the outcome and the ``RegistrationResult`` (None if it raised).
    A registration fails if it raises, gives a wrongly shaped or non-finite
    output, reports no termination reason, or misses the RMSE ceiling.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.reg = reg_id
        span = tracer.span("registration")
    t0 = time.perf_counter()
    try:
        with span:
            result, aligned, rec = _register_files(case, out_dir)
    except Exception:  # a failed registration is counted, the run goes on
        seconds = time.perf_counter() - t0
        err = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return Outcome(case.key, seconds, error=f"raised {err}"), None
    seconds = time.perf_counter() - t0

    reasons = result.termination_reasons
    out = Outcome(
        case.key, seconds,
        trace_sha256=hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest(),
        outer_iters=len(result.energy_trace),
        stages=len(reasons),
        i_max_stages=sum(r.endswith("i_max") for r in reasons),
    )
    if aligned.shape != case.gt.shape:
        out.error = f"output shape {aligned.shape}, expected {case.gt.shape}"
    elif not np.all(np.isfinite(aligned)):
        out.error = "non-finite output"
    elif not reasons or not all(REASON.fullmatch(r) for r in reasons):
        out.error = f"bad termination reasons {reasons!r}"
    else:
        out.rmse = evaluate.rmse(aligned, evaluate.GroundTruth(case.gt)) * rec.scale
        if not out.rmse < case.rmse_ceiling:
            out.error = f"rmse {out.rmse:.6g} not below ceiling {case.rmse_ceiling:g}"
    return out, result
