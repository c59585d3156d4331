"""Self-tests of the benchmark harness: percentile rule, span self time,
route classification, wrapper hygiene, op generators, reference sampling
and BENCHMARK.json.

Run with: python3 -m pytest bench/tests
"""

import itertools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

wg = run.import_library()


@pytest.fixture
def tracer():
    expected = spans.originals()
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    spans.assert_pristine(expected)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == Fraction("99.9")
    for count in (20, 57, 100, 101, 999, 1000, 12_345):
        p = run.tail_percentile(count)
        values = list(range(count))
        assert sum(v > run.percentile(values, p) for v in values) >= run.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert run.percentile(values, 50) == 3
    assert run.percentile(values, 90) == 5
    assert run.percentile(list(range(1, 101)), 90) == 90


def test_self_time_under_nesting(tracer):
    wg.rna_report(12, wg.RnaModel(theta=3, pair_energy=-1.0), k=100)
    stats = tracer.spans
    report = stats["rna.rna_report"]
    envelope = stats["asymptotics.collision_envelope"]
    tables = stats["counting.build_counts.exact"]
    assert report[0] == 1 and envelope[0] == 1 and tables[0] == 2
    # build_counts runs only inside collision_envelope here
    assert envelope[2] == pytest.approx(envelope[1] - tables[1], abs=1e-9)
    assert tables[2] == pytest.approx(tables[1], abs=1e-12)
    # one top-level call: the self times of all spans add up to its total
    assert sum(s[2] for s in stats.values()) == pytest.approx(report[1], rel=1e-9)
    assert all(s[2] >= -1e-9 for s in stats.values())


def test_build_counts_route_from_precision_argument(tracer):
    g = wg.normalize(wg.cli.motzkin_grammar())
    wg.build_counts(g, None, 10)
    wg.build_counts(g, None, 10, 64)
    wg.counting.build_counts(g, None, 10, precision=64)
    metrics = tracer.metrics()
    cells = 11 * len(g.nonterminals)
    assert metrics["counting.build_counts.exact.calls"] == 1
    assert metrics["counting.build_counts.mpf.calls"] == 2
    assert metrics["counting.build_counts.exact.cells"] == cells
    assert metrics["counting.build_counts.mpf.cells"] == 2 * cells
    assert metrics["counting.build_counts.exact.max_bits"] == (2188).bit_length() + 1


def test_one_minus_pow_route_from_result_type(tracer):
    p = Fraction(1, 3)
    assert isinstance(wg.numerics.one_minus_pow(p, 5), Fraction)
    assert not isinstance(wg.numerics.one_minus_pow(p, 10**6), Fraction)
    assert not isinstance(wg.numerics.one_minus_pow(p, 5, exact=False), Fraction)
    metrics = tracer.metrics()
    assert metrics["numerics.one_minus_pow.exact.calls"] == 1
    assert metrics["numerics.one_minus_pow.float.calls"] == 2
    assert metrics["numerics.one_minus_pow.exact_share"] == pytest.approx(1 / 3)


def test_wrappers_cover_names_imported_by_name(tracer):
    wrapped = wg.counting.build_counts
    assert hasattr(wrapped, spans.MARK)
    assert wg.asymptotics.build_counts is wrapped and wg.build_counts is wrapped
    assert wg.urns.one_minus_pow is wg.numerics.one_minus_pow
    with pytest.raises(RuntimeError, match="traced wrapper"):
        spans.assert_pristine(spans.originals())


def test_uninstall_restores_original_objects():
    expected = spans.originals()
    t = spans.Tracer()
    t.install()
    t.uninstall()
    spans.assert_pristine(expected)
    assert wg.asymptotics.build_counts is expected["counting.build_counts"]


def _ops(workload, seed, rounds=4):
    return list(itertools.chain.from_iterable(
        itertools.islice(workload.rounds(seed), rounds)))


PARTS = {name: part for w in workloads.WORKLOADS.values() for name, part in w.parts.items()}


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED, 7])
def test_op_generators_stay_in_stated_ranges(seed):
    assert {op["n"] for op in _ops(PARTS["sample"], seed)} == {100}

    models = set(workloads.RNA_MODELS)
    for op in _ops(PARTS["analytics"], seed):
        assert op["k"] in (100, 1000, 10000)
        if op["kind"] == "rna_report":
            assert op["model"] in models and 30 <= op["n"] <= 60
        elif op["kind"] == "analyze":
            assert op["W"] in (2, 3, Fraction(1, 2)) and 20 <= op["n"] <= 40
        else:
            assert op["kind"] == "coverage_rows" and op["model"] in models

    ops = _ops(PARTS["asymptotics"], seed, rounds=1)
    assert sorted(op["kind"] for op in ops) == ["conditions"] * 3 + ["singularity"] * 3
    assert {op["grammar"] for op in ops} <= {("motzkin", 2), ("motzkin", 3)} | {
        ("rna",) + model for model in models}

    for op in _ops(PARTS["montecarlo"], seed):
        assert 8 <= op["n"] <= 12
        if op["mode"] == "words":
            assert op["n"] <= 10
        if op["statistic"] == "full_collection":
            assert op["n"] in (8, 9)
        assert (op["k"] is not None) == (op["statistic"] in ("distinct", "coverage"))


def test_generators_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS.values():
        assert _ops(workload, 5) == _ops(workload, 5)
        assert _ops(workload, 5) != _ops(workload, 6)


def test_composite_rounds_keep_every_part_and_route_back():
    for workload in workloads.WORKLOADS.values():
        (ops,) = itertools.islice(workload.rounds(3), 1)
        for name, part in workload.parts.items():
            (own,) = itertools.islice(part.rounds(3), 1)
            mine = [{k: v for k, v in op.items() if k != "part"}
                    for op in ops if op["part"] == name]
            assert sorted(map(repr, mine)) == sorted(map(repr, own))


def test_structure_validity_check():
    ok = "((...).....)" + "." * 3
    assert workloads.rna_structure_error(tuple(ok), len(ok), 3) is None
    assert "fewer than 3" in workloads.rna_structure_error(tuple("(..)"), 4, 3)
    assert "unmatched" in workloads.rna_structure_error(tuple("(...."), 5, 3)
    assert "length" in workloads.rna_structure_error(tuple("..."), 4, 3)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    names = list(spans.Tracer().metrics()) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in names}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_runs_between_ops_for_its_share_of_op_time():
    class Sleeper:
        def begin(self, wg, ctx):
            pass

        def run(self, wg, ctx, spec):
            time.sleep(0.01)

    rounds = [[{"kind": "sleep"}] * 4] * 3
    records, done, refs = run.execute(None, Sleeper(), None, iter(rounds), math.inf)
    assert len(records) == 12 and len(done) == 3
    op_time = sum(r.latency for r in records)
    assert run.REFERENCE_SHARE * op_time <= sum(refs)
    assert sum(refs) - refs[-1] < run.REFERENCE_SHARE * op_time
