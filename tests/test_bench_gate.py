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


def test_one_asymptotics_round_passes_the_benchmark_checks():
    part = workloads.Asymptotics()
    ctx = part.setup(weightedgen, 1)
    part.begin(weightedgen, ctx)
    ops = next(part.rounds(1))
    records = [(spec, part.run(weightedgen, ctx, spec)) for spec in ops]
    assert {spec["kind"] for spec in ops} == {"singularity", "conditions"}
    assert part.check(weightedgen, ctx, records) == [None] * len(ops)
