"""The benchmark's workload parts, and the two workloads built from them.

Each part (``Sample``, ``MonteCarlo``, ``Analytics``, ``Asymptotics``) has:

- ``setup(wg, seed)`` builds what every op shares: grammars, count tables,
  urn models.  Its cost is the ``setup_s`` metric.
- ``begin(wg, ctx)`` resets per-run state before the ops of a run or replay.
- ``rounds(seed)`` yields rounds of op specs forever.  A round holds the same
  mix of op kinds and input ranges whatever the seed; the seed draws the
  concrete inputs inside each range, the simulation seeds and the order.
  Keeping the mix fixed is what keeps run-to-run spread small while the
  inputs still change with the seed.
- ``run(wg, ctx, spec)`` performs one op through the library's public API,
  with the calls the matching CLI subcommand makes.
- ``check(wg, ctx, records)`` verifies every result against an independent
  route and returns one error message (or None) per record.  Checks run
  after all ops, outside the timed region and outside any trace.

The library is reached only through the ``wg`` package object at call time,
so traced wrappers installed on the package see every call.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

RNA_MODELS = ((1, -1.0), (1, -3.0), (3, -1.0), (3, -3.0))  # (theta, energy)
MOTZKIN_WEIGHTS = (Fraction(2), Fraction(3), Fraction(1, 2))
REL_TOL_ASYMPTOTIC = 1e-9
REL_TOL_OCCUPANCY = 1e-12
SE_LIMIT = 5


def _close(a, b, rel_tol) -> bool:
    from mpmath import mp
    with mp.workdps(60):
        a, b = _mpf(a), _mpf(b)
        return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _mpf(x):
    from mpmath import mp
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _collision_plug_in(total, total_sq) -> float:
    """total * sqrt(pi) / sqrt(2 * total_sq), the first-collision plug-in."""
    from mpmath import mp
    with mp.workdps(50):
        return float(_mpf(total) * mp.sqrt(mp.pi) / mp.sqrt(2 * _mpf(total_sq)))


def rna_structure_error(word, n: int, theta: int):
    """None if `word` is a theta-constrained secondary structure of length n."""
    if len(word) != n:
        return f"length {len(word)}, expected {n}"
    open_pairs = []  # [position, encloses another pair]
    for i, letter in enumerate(word):
        if letter == "(":
            if open_pairs:
                open_pairs[-1][1] = True
            open_pairs.append([i, False])
        elif letter == ")":
            if not open_pairs:
                return f"unmatched ')' at {i}"
            start, nested = open_pairs.pop()
            if not nested and i - start - 1 < theta:
                return f"innermost pair at {start} encloses fewer than {theta} dots"
        elif letter != ".":
            return f"unknown letter {letter!r}"
    return f"unmatched '(' at {open_pairs[-1][0]}" if open_pairs else None


def _occupancy_errors(wg, u, k, distinct, coverage, occupied, mu, m):
    """Occupancy invariants shared by the report checks (None when all hold)."""
    if occupied is not None and not _close(occupied, _mpf(mu) * _mpf(coverage),
                                           REL_TOL_OCCUPANCY):
        return "occupied weight differs from mu * coverage"
    if _mpf(distinct) > min(k, m) * (1 + REL_TOL_OCCUPANCY):
        return f"distinct {float(distinct)} exceeds min(k, m) = {min(k, m)}"
    floats = {"distinct": wg.expected_distinct(u, k, exact=False).value,
              "coverage": wg.expected_coverage(u, k, exact=False)}
    if occupied is not None:
        floats["occupied_weight"] = wg.expected_occupied_weight(u, k, exact=False)
    values = {"distinct": distinct, "coverage": coverage, "occupied_weight": occupied}
    for key, ref in floats.items():
        if not _close(values[key], ref, REL_TOL_OCCUPANCY):
            return f"{key} differs from its exact=False route"
    return None


def _report_values(report, statistic, method):
    return [e.value for e in report.entries
            if e.statistic == statistic and e.method == method]


def _check_report(wg, report, u, k, plug_in, mu, m):
    asymptotic = _report_values(report, "first_collision", "asymptotic")
    if not asymptotic:
        return "no first_collision asymptotic row"
    for value in asymptotic:
        if not _close(value, plug_in, REL_TOL_ASYMPTOTIC):
            return f"first_collision asymptotic {value} != plug-in {plug_in}"
    (distinct,) = _report_values(report, "distinct", "exact")
    (coverage,) = _report_values(report, "coverage", "exact")
    (occupied,) = _report_values(report, "occupied_weight", "exact")
    return _occupancy_errors(wg, u, k, distinct, coverage, occupied, mu, m)


# ---------------------------------------------------------------------------


class Sample:
    """Exact-policy generation of long RNA structures (theta=3, E=-3, n=100)."""

    name = "sample"
    theta, energy, n = 3, -3.0, 100
    round_size = 40

    def setup(self, wg, seed):
        model = wg.RnaModel(theta=self.theta, pair_energy=self.energy)
        w = model.w
        grammar = wg.normalize(wg.rna_grammar(self.theta, w))
        table = wg.build_counts(grammar, None, self.n)
        sampler_seed = random.Random(f"sample:{seed}").getrandbits(63)
        return SimpleNamespace(w=w, table=table, sampler_seed=sampler_seed, state=None)

    def begin(self, wg, ctx):
        """Restart the sampling stream, so a replay draws the same words."""
        ctx.state = wg.SamplerState(ctx.table, seed=ctx.sampler_seed)

    def rounds(self, seed):
        while True:
            yield [{"kind": "sample_word", "n": self.n}] * self.round_size

    def run(self, wg, ctx, spec):
        return wg.sample_word(ctx.state, spec["n"])

    def check(self, wg, ctx, records):
        errors = []
        pairs = []
        for spec, word in records:
            err = rna_structure_error(word, self.n, self.theta)
            errors.append(err)
            if err is None:
                pairs.append(word.count("("))
        if len(pairs) >= 2:
            spectrum = wg.pair_spectrum(self.n, self.theta, ctx.w)
            weight = sum(c.count * c.weight for c in spectrum.classes)
            exact_mean = sum(c.count * c.weight * c.compositions[0][0]
                             for c in spectrum.classes) / weight
            mean = math.fsum(pairs) / len(pairs)
            var = math.fsum((p - mean) ** 2 for p in pairs) / (len(pairs) - 1)
            se = math.sqrt(var / len(pairs))
            if abs(mean - float(exact_mean)) > SE_LIMIT * se:
                msg = (f"mean pair count {mean:.4f} is more than {SE_LIMIT} SE "
                       f"({se:.4f}) from the exact {float(exact_mean):.4f}")
                errors = [e or msg for e in errors]
        return errors


class Analytics:
    """Redundancy queries: rna_report, Motzkin analyze, coverage_rows sweeps."""

    name = "analytics"
    sweep = range(2, 41)
    # One round: (kind, model or W, n window, k).  The pairing is fixed, so
    # every round (of every seed) holds the same mix of models, lengths and
    # k values, and with them the same mix of exact and float occupancy
    # routes; the seed draws n inside each 4-wide window and the order.
    design = (
        ("rna_report", (1, -1.0), (30, 33), 100),
        ("rna_report", (1, -3.0), (39, 42), 1000),
        ("rna_report", (3, -1.0), (48, 51), 10000),
        ("rna_report", (3, -3.0), (57, 60), 1000),
        ("analyze", Fraction(2), (20, 23), 1000),
        ("analyze", Fraction(3), (28, 31), 10000),
        ("analyze", Fraction(1, 2), (37, 40), 100),
        ("coverage_rows", (1, -1.0), None, 100),
        ("coverage_rows", (1, -3.0), None, 1000),
        ("coverage_rows", (3, -1.0), None, 10000),
        ("coverage_rows", (3, -3.0), None, 1000),
    )

    def setup(self, wg, seed):
        motzkin = {W: wg.normalize(wg.cli.motzkin_grammar().with_weights({".": W}))
                   for W in MOTZKIN_WEIGHTS}
        models = {tm: wg.RnaModel(theta=tm[0], pair_energy=tm[1]) for tm in RNA_MODELS}
        return SimpleNamespace(motzkin=motzkin, models=models, refs={})

    def begin(self, wg, ctx):
        pass

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            ops = []
            for kind, param, window, k in self.design:
                spec = {"kind": kind, "W" if kind == "analyze" else "model": param, "k": k}
                if window is not None:
                    spec["n"] = rng.randint(*window)
                ops.append(spec)
            rng.shuffle(ops)
            yield ops

    def run(self, wg, ctx, spec):
        kind = spec["kind"]
        if kind == "rna_report":
            return wg.rna_report(spec["n"], ctx.models[spec["model"]], k=spec["k"])
        if kind == "analyze":
            u = wg.from_spectrum(wg.weight_spectrum(ctx.motzkin[spec["W"]], None, spec["n"]))
            return wg.standard_report(u, n=spec["n"], k=spec["k"]), u
        return wg.coverage_rows(ctx.models[spec["model"]], spec["k"], self.sweep)

    def _rna_refs(self, wg, ctx, model, n):
        """Totals of weights, squared weights and structures, by the closed form."""
        key = ("rna", model, n)
        if key not in ctx.refs:
            w = ctx.models[model].w
            theta = model[0]
            ctx.refs[key] = (wg.rna_series(w, theta, n)[n],
                             wg.rna_series(w * w, theta, n)[n],
                             wg.rna_series(1, theta, n)[n])
        return ctx.refs[key]

    def _motzkin_refs(self, wg, ctx, W, n):
        """The same three totals for weighted Motzkin, by the count-table DP."""
        key = ("motzkin", W, n)
        if key not in ctx.refs:
            g = ctx.motzkin[W]
            ctx.refs[key] = tuple(
                wg.build_counts(g, {t: f(x) for t, x in g.weights.items()}, n).total(n)
                for f in (lambda x: x, lambda x: x * x, lambda x: 1))
        return ctx.refs[key]

    def check(self, wg, ctx, records):
        return [self._check_one(wg, ctx, spec, result) for spec, result in records]

    def _check_one(self, wg, ctx, spec, result):
        kind, k = spec["kind"], spec["k"]
        if kind == "rna_report":
            model, n = spec["model"], spec["n"]
            total, total_sq, m = self._rna_refs(wg, ctx, model, n)
            u = wg.from_spectrum(wg.pair_spectrum(n, model[0], ctx.models[model].w))
            return _check_report(wg, result, u, k, _collision_plug_in(total, total_sq),
                                 total, m)
        if kind == "analyze":
            report, u = result
            total, total_sq, m = self._motzkin_refs(wg, ctx, spec["W"], spec["n"])
            return _check_report(wg, report, u, k, _collision_plug_in(total, total_sq),
                                 total, m)
        model = spec["model"]
        theta, w = model[0], ctx.models[model].w
        counts = wg.rna_series(1, theta, self.sweep[-1])
        if [row[:2] for row in result] != [(n, k) for n in self.sweep]:
            return "coverage_rows returned other (n, k) rows than asked"
        for n, _, coverage, distinct_fraction in result:
            u = wg.from_spectrum(wg.pair_spectrum(n, theta, w))
            err = _occupancy_errors(wg, u, k, distinct_fraction * k, coverage, None,
                                    None, counts[n])
            if err:
                return f"n={n}: {err}"
        return None


class Asymptotics:
    """The asymptotics subcommand: float256 table + singularity fit, and the
    growth-condition probes, on Motzkin and RNA grammars."""

    name = "asymptotics"
    n_terms, precision = 256, 256
    # one Motzkin weight and the two extreme RNA models keep a round short
    grammars = (("motzkin", 2), ("rna", 1, -1.0), ("rna", 3, -3.0))

    def setup(self, wg, seed):
        normalized = {}
        for key in self.grammars:
            if key[0] == "motzkin":
                g = wg.cli.motzkin_grammar().with_weights({".": Fraction(key[1])})
            else:
                g = wg.rna_grammar(key[1], wg.RnaModel(theta=key[1], pair_energy=key[2]).w)
            normalized[key] = wg.normalize(g)
        return SimpleNamespace(grammars=normalized, rho={})

    def begin(self, wg, ctx):
        pass

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            ops = [{"kind": kind, "grammar": key}
                   for key in self.grammars for kind in ("singularity", "conditions")]
            rng.shuffle(ops)
            yield ops

    def run(self, wg, ctx, spec):
        g = ctx.grammars[spec["grammar"]]
        if spec["kind"] == "singularity":
            table = wg.build_counts(g, None, self.n_terms, self.precision)
            return wg.estimate_singularity(table.coefficients())
        return wg.check_conditions(g)

    def _rho(self, wg, ctx, key):
        """Dominant singularity by a closed form: 1/(W+2), or the RNA discriminant root."""
        if key not in ctx.rho:
            if key[0] == "motzkin":
                ctx.rho[key] = 1 / (key[1] + 2)
            else:
                ctx.rho[key] = wg.rna_rho(wg.RnaModel(theta=key[1], pair_energy=key[2]).w,
                                          key[1])
        return ctx.rho[key]

    def check(self, wg, ctx, records):
        errors = []
        for spec, result in records:
            rho = self._rho(wg, ctx, spec["grammar"])
            if spec["kind"] == "singularity":
                ok = abs(result.rho - rho) <= 1e-4 * rho
                errors.append(None if ok else f"rho {result.rho} vs closed form {rho}")
                continue
            # check_conditions fits a shorter 160-term tail at 192 bits
            probe = result.bounded_dependency
            fitted = probe.data[0][2] ** 0.5 if probe.data else float("nan")
            if result.log_positive.holds is not True:
                errors.append("log-positive probe failed on weights above 1")
            elif not abs(fitted - rho) <= 1e-3 * rho:
                errors.append(f"conditions rho {fitted} vs closed form {rho}")
            else:
                errors.append(None)
        return errors


class MonteCarlo:
    """urns.simulate at word level (short words, n = 8..10) and urn level
    (n = 8..12), weighted Motzkin W=2."""

    name = "montecarlo"
    W = Fraction(2)
    top = 12
    # One round: (mode, statistic, n, k, trials).  Trials are sized so every
    # op costs about the same; word-level k is about twice the expected
    # first-collision time (14.5, 21.4, 31.9 for n = 8, 9, 10), so each trial
    # sees a few collisions and the mean is close to normal at the 5 SE check.
    design = (
        ("words", "first_collision", 8, None, 40),
        ("words", "first_collision", 9, None, 24),
        ("words", "first_collision", 10, None, 12),
        ("words", "distinct", 8, 29, 20),
        ("words", "distinct", 9, 43, 12),
        ("words", "distinct", 10, 64, 6),
        ("words", "coverage", 8, 29, 20),
        ("words", "coverage", 9, 43, 12),
        ("words", "coverage", 10, 64, 6),
        ("urns", "first_collision", 8, None, 12000),
        ("urns", "first_collision", 9, None, 8000),
        ("urns", "first_collision", 10, None, 6000),
        ("urns", "first_collision", 11, None, 4000),
        ("urns", "first_collision", 12, None, 2500),
        ("urns", "coverage", 8, 1000, 200),
        ("urns", "coverage", 9, 1000, 200),
        ("urns", "coverage", 10, 1000, 200),
        ("urns", "coverage", 11, 1000, 200),
        ("urns", "coverage", 12, 1000, 200),
        ("urns", "full_collection", 8, None, 15),   # m = 323
        ("urns", "full_collection", 9, None, 4),    # m = 835
    )

    def setup(self, wg, seed):
        g = wg.normalize(wg.cli.motzkin_grammar().with_weights({".": self.W}))
        table = wg.build_counts(g, None, self.top)
        spectra = wg.weight_spectra(g, None, self.top)
        models = {n: wg.from_spectrum(spectra[n]) for n in range(8, self.top + 1)}
        return SimpleNamespace(state=wg.SamplerState(table), urns=models, birthday={})

    def begin(self, wg, ctx):
        pass

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            ops = [{"kind": f"{mode}.{statistic}", "mode": mode, "statistic": statistic,
                    "n": n, "k": k, "trials": trials, "seed": rng.getrandbits(32)}
                   for mode, statistic, n, k, trials in self.design]
            rng.shuffle(ops)
            yield ops

    def run(self, wg, ctx, spec):
        model = ctx.state if spec["mode"] == "words" else ctx.urns[spec["n"]]
        return wg.simulate(model, spec["statistic"], spec["trials"], seed=spec["seed"],
                           k=spec["k"], n=spec["n"])

    def _birthday_moments(self, wg, ctx, n):
        """E[B] from birthday_exact, and Var[B] from E[B^2] = 2 int t e^psi(t) dt - E[B]
        with psi(t) = sum c_i log1p(p_i t) - t."""
        if n not in ctx.birthday:
            from mpmath import mp
            u = ctx.urns[n]
            mean = wg.birthday_exact(u)
            with mp.workdps(20):
                terms = [(_mpf(c.probability), c.count) for c in u.classes]

                def density(t):
                    return t * mp.exp(mp.fsum(c * mp.log1p(p * t) for p, c in terms) - t)

                points = [0] + [mean * 2 ** j for j in range(-1, 5)] + [mp.inf]
                second = 2 * mp.quad(density, points) - mean
                ctx.birthday[n] = (mean, float(second - mean ** 2))
        return ctx.birthday[n]

    def _occupancy_moments(self, wg, u, statistic, k):
        """Mean and exact variance of the distinct count or the coverage after
        k draws: Var = sum over urn pairs of a_u a_v Cov(hit_u, hit_v), with
        P(u and v missed) = (1 - p_u - p_v)^k."""
        from mpmath import mp
        with mp.workdps(60):
            classes = [(_mpf(c.probability), c.count) for c in u.classes]
            missed = [(1 - p) ** k for p, _ in classes]
            mean = var = 0
            for i, (p_i, c_i) in enumerate(classes):
                a_i = 1 if statistic == "distinct" else p_i
                mean += c_i * a_i * (1 - missed[i])
                var += c_i * a_i ** 2 * missed[i] * (1 - missed[i])
                for j, (p_j, c_j) in enumerate(classes):
                    a_j = 1 if statistic == "distinct" else p_j
                    pairs = c_i * (c_i - 1) if i == j else c_i * c_j
                    if pairs:
                        var += pairs * a_i * a_j * ((1 - p_i - p_j) ** k - missed[i] * missed[j])
            return float(mean), float(var)

    def _expected(self, wg, ctx, spec):
        """([lower, upper] of the expectation, variance of one trial or None)."""
        statistic, n, k = spec["statistic"], spec["n"], spec["k"]
        u = ctx.urns[n]
        if statistic == "first_collision":
            mean, var = self._birthday_moments(wg, ctx, n)
        elif statistic == "full_collection":
            bounds = wg.coupon_bounds(u)
            return (float(bounds.lower), float(bounds.upper)), None
        else:
            mean, var = self._occupancy_moments(wg, u, statistic, k)
            library = (wg.expected_distinct(u, k).value if statistic == "distinct"
                       else wg.expected_coverage(u, k))
            if not _close(mean, library, 1e-9):
                raise AssertionError(f"{statistic} moments disagree with the library")
        return (mean, mean), var

    def check(self, wg, ctx, records):
        errors = []
        for spec, result in records:
            (lower, upper), var = self._expected(wg, ctx, spec)
            # Exact variances where known: a 10-trial sample SE is too noisy
            # for a 5 SE test repeated many times per run.
            se = result.stderr if var is None else math.sqrt(var / result.trials)
            if lower - SE_LIMIT * se <= result.mean <= upper + SE_LIMIT * se:
                errors.append(None)
            else:
                errors.append(f"{spec['kind']} n={spec['n']} k={spec['k']}: mean "
                              f"{result.mean:.6g} is more than {SE_LIMIT} SE ({se:.3g}) "
                              f"from [{lower:.6g}, {upper:.6g}]")
        return errors


class Composite:
    """A workload whose rounds interleave the rounds of several parts.

    Each part keeps its own set-up, inputs and checks; a spec carries the
    name of the part that runs and checks it.
    """

    def __init__(self, name, *parts):
        self.name = name
        self.parts = {part.name: part for part in parts}

    def setup(self, wg, seed):
        return {name: part.setup(wg, seed) for name, part in self.parts.items()}

    def begin(self, wg, ctx):
        for name, part in self.parts.items():
            part.begin(wg, ctx[name])

    def rounds(self, seed):
        order = random.Random(f"{self.name}:{seed}")
        streams = [part.rounds(seed) for part in self.parts.values()]
        for rounds in zip(*streams):
            ops = [dict(spec, part=name)
                   for name, specs in zip(self.parts, rounds) for spec in specs]
            order.shuffle(ops)
            yield ops

    def run(self, wg, ctx, spec):
        return self.parts[spec["part"]].run(wg, ctx[spec["part"]], spec)

    def check(self, wg, ctx, records):
        errors = [None] * len(records)
        for name, part in self.parts.items():
            mine = [i for i, (spec, _) in enumerate(records) if spec["part"] == name]
            found = part.check(wg, ctx[name], [records[i] for i in mine])
            for i, error in zip(mine, found):
                errors[i] = error
        return errors


# Two workloads, not four: on a shared host the machine's speed drifts by
# 10-30% over tens of seconds, and only runs of about a minute average that
# out.  A fixed time budget for 22 runs per workload affords runs of that
# length for two workloads.  Each still bypasses the other's layers: no
# sampler or simulator in "analysis", no urn analytics or mpf tables in
# "sampling".
WORKLOADS = {w.name: w for w in (Composite("sampling", Sample(), MonteCarlo()),
                                 Composite("analysis", Analytics(), Asymptotics()))}
