"""End-to-end and per-layer metrics from registration outcomes and spans."""

from __future__ import annotations

import resource
import statistics

import numpy as np

from .tracing import self_times

TAIL_BEYOND = 10      # samples the tail percentile keeps above it


def tail_percentile(n):
    """Percentile reported as the tail of n samples.

    The highest percentile with ten samples above it, 100 (1 - 10/n), once
    n >= 40.  Fewer samples support no high percentile; the 75th, which keeps
    a quarter of them above it, is reported instead of the noisy maximum.
    """
    return max(75.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def tail(samples):
    """``(value, percentile)`` of the tail, linearly interpolated."""
    pct = tail_percentile(len(samples))
    return float(np.percentile(samples, pct)), pct


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, outcomes):
    # each registration in multiples of the host speed reference timed
    # around it
    rel = [o.seconds / o.ref_s for o in outcomes]
    # one RMSE per distinct input: repeats of an input give the same value
    rmses = list({o.key: o.rmse for o in outcomes if o.rmse is not None}.values())
    tail_value, _ = tail(rel)
    return {
        "setup_s": (setup_s, "s"),
        "result_rel.p50": (statistics.median(rel), "ref"),
        "result_rel.tail": (tail_value, "ref"),
        "rmse": (statistics.fmean(rmses) if rmses else None, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_share": (sum(o.ok for o in outcomes) / len(outcomes), "share"),
    }


def paired_overhead(untraced, traced):
    """Median traced minus median untraced registration time, over the
    positions of the input cycle both halves reached."""
    m = min(len(untraced), len(traced))
    return (statistics.median(o.seconds for o in traced[:m])
            - statistics.median(o.seconds for o in untraced[:m]))


def per_layer(spans, untraced, traced):
    """Per-layer metrics of a traced run.

    Graph and geodesic figures are per graph build, wherever the build ran
    (inside each registration, or once in set-up for track-2k5); all other
    figures are per traced registration.  Times are self times, except
    ``graph.build_s`` which is the whole build.
    """
    selfs = self_times(spans)
    n_reg = len(traced)

    def pick(name, setup=False):
        """(span, self time) of every span called ``name`` in a traced
        registration, and in set-up too if ``setup``."""
        return [(sp, t) for sp, t in zip(spans, selfs)
                if sp.name == name and (setup or sp.reg != "setup")]

    def s(*names):
        return sum(t for n in names for _, t in pick(n)) / n_reg

    def calls(name):
        return len(pick(name)) / n_reg

    # a run whose every registration raised early may have no build
    builds = [sp for sp, _ in pick("graph.build", setup=True)]
    n_build = max(len(builds), 1)
    geo = pick("geodesic", setup=True)
    nodes = max(sum(b.counts["nodes"] for b in builds), 1)

    def per_build(key):
        return sum(b.counts[key] for b in builds) / n_build

    def build_s(name):
        return sum(t for _, t in pick(name, setup=True)) / n_build

    searches = [i for i, sp in enumerate(spans)
                if sp.name == "inner.line_search" and sp.reg != "setup"]
    evals_in = {i: 0 for i in searches}
    for sp in spans:
        if sp.name == "energy.surrogate" and sp.parent in evals_in:
            evals_in[sp.parent] += 1
    accepted = sum(spans[i].counts["accepted"] for i in searches)
    energy_evals = len(pick("energy.surrogate"))

    # every span inside a registration is a layer call; the registration
    # span's own self time is the benchmark's glue between them
    regs = [(sp.end - sp.start, t) for sp, t in zip(spans, selfs)
            if sp.name == "registration"]
    layers_s = statistics.fmean(d - t for d, t in regs)

    metrics = {
        "mesh.load_s": (s("mesh.load"), "s"),
        "mesh.normals_s": (s("mesh.normals"), "s"),
        "mesh.normalize_s": (s("mesh.normalize"), "s"),
        "mesh.save_s": (s("mesh.save"), "s"),
        "geodesic.calls": (len(geo) / n_build, "count"),
        "geodesic.s": (build_s("geodesic"), "s"),
        "geodesic.vertices_reached": (sum(sp.counts["reached"] for sp, _ in geo) / n_build,
                                      "count"),
        "geodesic.calls_per_node": (len(geo) / nodes, "count"),
        "graph.build_s": (sum(b.end - b.start for b in builds) / n_build, "s"),
        "graph.sample_s": (build_s("graph.sample"), "s"),
        "graph.influence_s": (build_s("graph.influence"), "s"),
        "graph.edges_s": (build_s("graph.build"), "s"),
        "graph.nodes": (per_build("nodes"), "count"),
        "graph.edges": (per_build("edges"), "count"),
        "graph.influence_nnz": (per_build("influence_nnz"), "count"),
        "graph.fallback_points": (per_build("fallback_points"), "count"),
        "graph.alloc_peak_mb": (max((b.counts["alloc_peak_bytes"] for b in builds),
                                    default=0) / 2**20, "MB"),
        "icp.s": (s("icp"), "s"),
        "closest.calls": (calls("closest"), "count"),
        "closest.queries": (sum(sp.counts["queries"] for sp, _ in pick("closest")) / n_reg,
                            "count"),
        "closest.s": (s("closest"), "s"),
        "transform.calls": (calls("transform"), "count"),
        "transform.s": (s("transform"), "s"),
        "surrogate.calls": (calls("surrogate"), "count"),
        "surrogate.s": (s("surrogate"), "s"),
        "h0.assemble_s": (s("h0.assemble"), "s"),
        "energy.eval_s": (s("energy.surrogate", "energy.gradient", "energy.total"), "s"),
        "h0.factor_s": (s("h0.factor"), "s"),
        "inner.calls": (calls("inner"), "count"),
        "inner.s": (s("inner", "inner.line_search"), "s"),
        "inner.iters": (accepted / n_reg, "count"),
        "inner.energy_evals": (energy_evals / n_reg, "count"),
        "inner.backtracks": ((sum(evals_in.values()) - accepted) / n_reg, "count"),
        "inner.accept_ratio": (accepted / max(energy_evals, 1), "share"),
        "outer.iters": (statistics.fmean(o.outer_iters for o in traced), "count"),
        "outer.stages": (statistics.fmean(o.stages for o in traced), "count"),
        "outer.i_max_stages": (statistics.fmean(o.i_max_stages for o in traced), "count"),
        "outer.s": (s("register"), "s"),
        "untraced.result_s": (statistics.median(o.seconds for o in untraced), "s"),
        "trace.result_s": (statistics.median(d for d, _ in regs), "s"),
        "trace.overhead_s": (paired_overhead(untraced, traced), "s"),
        "trace.layers_s": (layers_s, "s"),
        "trace.coverage": (layers_s / statistics.fmean(d for d, _ in regs), "share"),
    }
    return metrics
