"""Benchmark runner for weightedgen.

Run from the repository root:

    python3 bench/run.py --workload sampling --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all

One process, one thread.  An untraced run (``--trace 0``) times its ops and
prints the end-to-end metrics, corrected for the host's speed (see
``reference``); a traced run (``--trace 1``) runs the same
schedule twice, untraced and then under the span wrappers of ``spans.py``,
and prints the per-layer metrics.  The library is imported from ``src/`` next
to this directory; without it the runner exits with an error and prints no
result.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"detail": ...}`` object with the op count, tail percentile, error rate,
set-up samples, failures and the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
DEFAULT_SECONDS = 50
TAIL_PERCENTILES = (Fraction("99.9"), Fraction(99), Fraction(90), Fraction(50))
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 600
SETUP_REPEATS = 3
# Duration of reference() on the host the bounds were set on (2-core x86-64,
# CPython 3.11) at its usual speed.  An op's time is multiplied by
# REFERENCE_S over the mean reference time measured just before and just
# after it; a set-up's by REFERENCE_S over the mean of its run's ops.
REFERENCE_S = 0.003
REFERENCE_SHARE = 0.05  # reference time between ops, as a share of op time


class Record:
    __slots__ = ("spec", "latency", "reference", "result", "error")

    def __init__(self, spec, latency, reference, result, error):
        self.spec, self.latency, self.reference = spec, latency, reference
        self.result, self.error = result, error

    @property
    def scaled(self) -> float:
        return self.latency * REFERENCE_S / self.reference


def import_library():
    """Import weightedgen from this checkout's src/, and nothing else."""
    package = SRC / "weightedgen"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: weightedgen sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import weightedgen
    import weightedgen.cli  # bound before tracing, so its by-name imports are restorable
    if Path(weightedgen.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported weightedgen from {weightedgen.__file__}")
    return weightedgen


# ---------------------------------------------------------------------------
# host speed


def reference():
    """Fixed pure-Python work: big-int, Fraction and dict arithmetic.

    The shared host's speed drifts by up to 1.6x between runs a few minutes
    apart and by up to 2x within a second.  Timing this fixed work right
    before and after each op measures the host's speed at that moment, so
    the end-to-end timings compare code, not the host's load.  It calls no
    library code, so no change to the library moves it.
    """
    x, acc, table = 1, Fraction(0), {}
    for i in range(1, 500):
        x = x * 3 + i
        acc += Fraction(i, i + 1)
        table[i % 17] = table.get(i % 17, 0) + x % 1000
    return acc, x


def reference_time() -> float:
    """Wall time of one run of reference()."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(count: int):
    """Highest percentile with at least MIN_BEYOND samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p * count / 100) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(Fraction(p) * len(ordered) / 100) - 1)]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".max_bits"):
        return "bits"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "seed": seed}


# ---------------------------------------------------------------------------
# running


def time_setups(workload, seed) -> list:
    """Wall time from a fresh interpreter to the first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child exited with code {code}")
        samples.append(elapsed)
    return samples


def execute(wg, workload, ctx, rounds, budget_s):
    """Run the whole number of rounds whose duration comes closest to the budget.

    Between ops, reference() runs until its time is REFERENCE_SHARE of the op
    time so far.  Each record keeps the mean of the reference times just
    before and just after its op; all reference times are returned too.
    """
    workload.begin(wg, ctx)
    records, done = [], []
    before = [reference_time()]
    references = list(before)
    op_time, ref_time = 0.0, before[0]
    start = time.perf_counter()
    for ops in rounds:
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / len(done) / 2 > budget_s:
            break
        for spec in ops:
            t0 = time.perf_counter()
            try:
                result, error = workload.run(wg, ctx, spec), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{spec['kind']}: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            op_time += latency
            after = []
            while ref_time < REFERENCE_SHARE * op_time:
                after.append(reference_time())
                ref_time += after[-1]
            records.append(Record(spec, latency, statistics.fmean(before + after),
                                  result, error))
            references += after
            before = after or before
        done.append(ops)
    return records, done, references


def verify(wg, workload, ctx, records):
    ran = [r for r in records if r.error is None]
    try:
        errors = workload.check(wg, ctx, [(r.spec, r.result) for r in ran])
    except Exception as exc:  # a crashing check fails every op it covers
        errors = [f"check raised {type(exc).__name__}: {exc}"] * len(ran)
    for record, error in zip(ran, errors):
        record.error = error


def untraced(workload, seed, seconds):
    wg = import_library()
    setup_samples = time_setups(workload, seed)
    originals = spans.originals()
    spans.assert_pristine(originals)
    ctx = workload.setup(wg, seed)
    records, rounds, references = execute(wg, workload, ctx, workload.rounds(seed), seconds)
    spans.assert_pristine(originals)
    verify(wg, workload, ctx, records)
    raw = [r.latency for r in records]
    latencies = [r.scaled for r in records]
    setups = [elapsed * REFERENCE_S / statistics.fmean(references)
              for elapsed in setup_samples]
    metrics = {"ops_per_s": len(latencies) / math.fsum(latencies),
               "op_p50_s": statistics.median(latencies),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "setup_s": statistics.median(setups)}
    units = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    tail = tail_percentile(len(latencies))
    detail = {"rounds": len(rounds), "setup_samples_s": setups,
              "op_tail": None if tail is None else
              {"percentile": float(tail), "s": percentile(latencies, tail)},
              "unscaled": {"ops_per_s": len(raw) / math.fsum(raw),
                           "op_p50_s": statistics.median(raw),
                           "setup_samples_s": setup_samples},
              "reference_s": {"nominal": REFERENCE_S, "samples": len(references),
                              "mean": statistics.fmean(references)}}
    return wg, records, metrics, units, detail


def traced(workload, seed, seconds):
    wg = import_library()
    originals = spans.originals()
    spans.assert_pristine(originals)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = workload.setup(wg, seed)
    finally:
        tracer.uninstall()
    spans.assert_pristine(originals)
    plain, rounds, _ = execute(wg, workload, ctx, workload.rounds(seed), seconds / 2)
    spans.assert_pristine(originals)
    tracer.install()
    try:
        replay, _, _ = execute(wg, workload, ctx, iter(rounds), math.inf)
    finally:
        tracer.uninstall()
    spans.assert_pristine(originals)
    verify(wg, workload, ctx, plain)
    for before, after in zip(plain, replay):
        if after.error is None:
            same = after.result == before.result
            after.error = before.error if same else \
                f"{after.spec['kind']}: traced result differs from the untraced one"
    records = plain + replay
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (math.fsum(r.scaled for r in replay)
                                   - math.fsum(r.scaled for r in plain))
    units = {name: unit_of(name) for name in metrics}
    return wg, records, metrics, units, {"rounds": len(rounds)}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    mode = traced if args.trace else untraced
    wg, records, metrics, units, detail = mode(workload, args.seed, args.seconds)
    failures = [r.error for r in records if r.error is not None]
    detail.update({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "ops": len(records),
                   "error_rate": len(failures) / len(records),
                   "failures": failures[:5], "env": environment(args.seed)})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        wg = import_library()
        workload.begin(wg, workload.setup(wg, args.seed))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
