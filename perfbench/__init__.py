"""Benchmark of nrreg's registration pipeline.

Run one workload with ``python3 perfbench/run.py --workload track-2k5 --seed 1
--seconds 40 --trace 0`` from the repository root; see ``perfbench/README.md``.
"""
