"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload track-2k5 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: nrreg is imported from ``src/``
next to this directory, never from an installed copy.  ``--trace 0``
measures the end-to-end metrics with no tracing; registration times are
reported relative to a host speed reference (see ``reference.py``).
``--trace 1`` spends half the time on untraced and half on traced
registrations and reports the per-layer metrics, including the tracing
overhead.  A run record (samples,
hashes, probe outcomes, environment) goes to ``perfbench/out/``, and the
spans of a traced run next to it.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1      # one thread: steadier timings on a shared machine
SETUP_REPEATS = 3     # set-up runs per process; setup_s takes their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["track-2k5", "cloud-outliers"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(workload, case_dir, budget, tracer=None):
    """Register the workload's cases in turn until ``budget`` seconds have
    passed (at least one registration).  The host speed reference is timed
    between registrations; each outcome gets the mean of the two around it.
    Returns the outcomes."""
    # these import numpy: only after main() pins threads
    from perfbench.pipeline import run_case
    from perfbench.reference import reference_s

    outcomes = []
    start = time.perf_counter()
    k = 0
    reference_s()   # the first call pays one-off costs
    ref_before = reference_s()
    while not outcomes or time.perf_counter() - start < budget:
        outcome, result = run_case(workload.case(k), case_dir, tracer, reg_id=f"r{k}")
        ref_after = reference_s()
        outcome.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        workload.done(k, result)
        outcomes.append(outcome)
        k += 1
    return outcomes


def consistent(outcomes):
    """Registrations of the same input give the same trace hash and RMSE."""
    seen = {}
    for o in outcomes:
        got = (o.trace_sha256, o.rmse)
        if o.ok and seen.setdefault(o.key, got) != got:
            return False
    return True


def input_digest(inputs):
    h = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nrreg" / "__init__.py").is_file():
        print(f"error: no nrreg source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np
    import scipy

    import nrreg
    from perfbench import measure as metrics
    from perfbench.pipeline import run_case
    from perfbench.probes import run_probes
    from perfbench.tracing import Tracer, instrument
    from perfbench.workloads import WORKLOADS

    if Path(nrreg.__file__).resolve().parent != ROOT / "src" / "nrreg":
        print(f"error: nrreg imported from {nrreg.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload]()
    work = ROOT / "perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with instrument(tracer) if tracer else contextlib.nullcontext():
                workload.setup(np.random.default_rng(args.seed), inputs)
            setup_times.append(time.perf_counter() - t0)
            digests.append(input_digest(inputs))
        setup_s = import_s + statistics.median(setup_times)

        # warm-up: one untimed registration of the first input, checked and
        # compared with its timed repeat like any other
        warm_up, result = run_case(workload.case(0), work / "case")
        workload.done(0, result)
        if tracer:
            untraced = measure(workload, work / "case", args.seconds / 2)
            with instrument(tracer):
                traced_runs = measure(workload, work / "case", args.seconds / 2, tracer)
            outcomes = untraced + traced_runs
            values = metrics.per_layer(tracer.spans, untraced, traced_runs)
        else:
            untraced = outcomes = measure(workload, work / "case", args.seconds)
            values = metrics.end_to_end(setup_s, outcomes)
        probes = run_probes()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = {
        "inputs_deterministic": len(set(digests)) == 1,
        "repeats_identical": consistent([warm_up] + untraced),
        "no_failed_registration": all(o.ok for o in [warm_up] + outcomes),
    }
    if tracer:
        checks["traced_matches_untraced"] = consistent(outcomes)
    failed = sum(not o.ok for o in outcomes)
    times = [o.seconds for o in untraced]
    refs = [o.ref_s for o in untraced]
    tail_value, tail_pct = metrics.tail(times)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "machine": platform.machine(),
        },
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "warm_up": warm_up.__dict__,
        "result_s_samples": len(times),
        "result_s_tail_percentile": tail_pct,
        "registrations": [o.__dict__ for o in outcomes],
        "probes": probes,
        "checks": checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{stem}-spans.jsonl")

    env = record["environment"]
    print(f"{args.workload} seed {args.seed}: nproc {nproc}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS/OpenMP threads {BLAS_THREADS}")
    print(f"setup {setup_s:.3f} s (imports {import_s:.3f} s + median of "
          f"{SETUP_REPEATS} set-ups); {len(times)} untraced registrations, "
          f"median {statistics.median(times):.4f} s, tail = p{tail_pct:.1f} "
          f"({tail_value:.4f} s); host speed reference median "
          f"{statistics.median(refs):.4f} s")
    if tracer:
        untraced_s = statistics.median(times)
        layers, overhead = values["trace.layers_s"][0], values["trace.overhead_s"][0]
        print(f"layer self times {layers:.4f} s per traced registration, untraced "
              f"registration {untraced_s:.4f} s: gap {untraced_s - layers:+.4f} s, "
              f"tracing overhead {overhead:+.4f} s")
    for name, p in probes.items():
        print(f"probe {name}: {p['outcome']}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for o in outcomes:
        if not o.ok:
            print(f"failed registration {o.key}: {o.error}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
