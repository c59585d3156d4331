"""The benchmark's correctness checks, run on the library as it stands.

A change to a result's shape (say, the data tuple of a condition probe) that
the benchmark's checks no longer read would turn every op of a workload into
an incorrect output; this runs one round of such a part through its own
`setup`, `run` and `check` so that shows up here first.
"""

import sys
from pathlib import Path

import weightedgen
import weightedgen.cli  # noqa: F401  (the workloads read weightedgen.cli)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def _check_one_round(part, kinds):
    ctx = part.setup(weightedgen, 1)
    part.begin(weightedgen, ctx)
    ops = next(part.rounds(1))
    records = [(spec, part.run(weightedgen, ctx, spec)) for spec in ops]
    assert {spec["kind"] for spec in ops} == kinds
    assert part.check(weightedgen, ctx, records) == [None] * len(ops)


def test_one_asymptotics_round_passes_the_benchmark_checks():
    _check_one_round(workloads.Asymptotics(), {"singularity", "conditions"})


def test_one_analytics_round_passes_the_benchmark_checks():
    # rna_report reads its growth base from the grammar's equations; the
    # report checks read the rows beside it
    _check_one_round(workloads.Analytics(), {"rna_report", "analyze", "coverage_rows"})


def test_one_sample_round_passes_the_benchmark_checks():
    _check_one_round(workloads.Sample(), {"sample_word"})


def test_one_montecarlo_round_passes_the_benchmark_checks():
    # the set-up builds its urn models with from_spectrum, and the checks
    # read their classes, birthday_exact and coupon_bounds
    part = workloads.MonteCarlo()
    _check_one_round(part, {f"{mode}.{statistic}" for mode, statistic, *_ in part.design})
