"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nrreg.graph  # noqa: E402
import nrreg.solver  # noqa: E402
from perfbench.measure import end_to_end, per_layer, tail  # noqa: E402
from perfbench.pipeline import Outcome, run_case  # noqa: E402
from perfbench.tracing import Span, Tracer, instrument, self_times  # noqa: E402
from perfbench.workloads import CloudOutliers, TrackFrames  # noqa: E402

# the benchmark's workloads shrunk so that a registration takes well under a second
SMALL = {
    "track": type("SmallTrack", (TrackFrames,), {"grid": 14, "frames": 3}),
    "cloud": type("SmallCloud", (CloudOutliers,), {"grid": 12, "cloud_grid": 25}),
}


def _setup(cls, seed, path):
    path.mkdir()
    w = cls()
    w.setup(np.random.default_rng(seed), path)
    return w, {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_deterministic_per_seed(tmp_path, name):
    _, a = _setup(SMALL[name], 5, tmp_path / "a")
    _, b = _setup(SMALL[name], 5, tmp_path / "b")
    _, c = _setup(SMALL[name], 6, tmp_path / "c")
    assert a == b
    assert a != c


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "r0")


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),          # overlaps a: the union is [1, 5]
        _span("c", 6.0, 7.0, 0),
        _span("a.child", 1.5, 2.0, 1),
        _span("late", 9.5, 11.0, 0),      # only [9.5, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 1.5, 3.0, 1.0, 0.5, 1.5])


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end
    assert sum(self_times(tracer.spans)) == pytest.approx(outer.end - outer.start)


@pytest.mark.parametrize("n, pct", [(1, 75.0), (2, 75.0), (6, 75.0), (39, 75.0),
                                    (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_for_sample_count(n, pct):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    value, percentile = tail(samples)
    assert percentile == pytest.approx(pct)
    assert value == pytest.approx(pct / 100.0 * (n - 1))   # ranks 0 .. n-1
    if n >= 40:
        assert sum(x > value for x in samples) >= 10


def test_end_to_end_times_are_relative_to_their_reference():
    outcomes = [Outcome(k, seconds, rmse=0.01, ref_s=ref)
                for k, (seconds, ref) in enumerate([(1.0, 0.1), (3.0, 0.2), (1.5, 0.05)])]
    values = end_to_end(2.0, outcomes)
    assert values["result_rel.p50"] == (15.0, "ref")        # of 10, 15 and 30
    assert values["result_rel.tail"][0] == pytest.approx(22.5)   # p75
    assert values["setup_s"] == (2.0, "s")


def test_instrument_restores_originals():
    before = (nrreg.graph.geodesic_from, nrreg.solver.splu,
              nrreg.solver.find_correspondences,
              nrreg.energy.SurrogateSystem.energy)
    with instrument(Tracer()):
        assert nrreg.graph.geodesic_from is not before[0]
        assert nrreg.geodesic.geodesic_from.__wrapped__ is before[0]
    after = (nrreg.graph.geodesic_from, nrreg.solver.splu,
             nrreg.solver.find_correspondences,
             nrreg.energy.SurrogateSystem.energy)
    assert after == before


def _run(workload, count, out_dir, tracer=None):
    outcomes = []
    for k in range(count):
        outcome, result = run_case(workload.case(k), out_dir, tracer, reg_id=f"r{k}")
        workload.done(k, result)
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("name, count", [("track", 4), ("cloud", 1)])
def test_traced_run_matches_untraced(tmp_path, name, count):
    tracer = Tracer()
    with instrument(tracer):
        workload, _ = _setup(SMALL[name], 3, tmp_path / "in")
    plain = _run(workload, count, tmp_path / "plain")
    with instrument(tracer):
        traced = _run(workload, count, tmp_path / "traced", tracer)
    assert [o.error for o in plain] == [o.error for o in traced]
    assert [(o.trace_sha256, o.rmse) for o in plain] == \
        [(o.trace_sha256, o.rmse) for o in traced]

    layers = per_layer(tracer.spans, plain, traced)
    assert layers["geodesic.calls_per_node"][0] == pytest.approx(2.0)
    assert layers["outer.iters"][0] == np.mean([o.outer_iters for o in traced])
    assert 0.0 < layers["trace.coverage"][0] <= 1.0
