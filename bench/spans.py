"""Outside-in spans around weightedgen's public functions.

The benchmark never edits the library.  Instead, for a traced run it replaces
every binding of each target function inside the ``weightedgen`` package (the
defining module *and* every module that imported the name, since
``asymptotics``, ``urns`` and ``rna`` import by name) with a wrapper that
times the call and reads counts from its arguments and result.  ``uninstall``
puts the original objects back; ``assert_pristine`` proves that untraced code
sees only originals.

Self time of a span is its duration minus the durations of the wrapped calls
made inside it, so the self times of one top-level call sum to its total.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

MARK = "_bench_span"


def _exact_bits(q) -> int:
    q = Fraction(q)
    return q.numerator.bit_length() + q.denominator.bit_length()


def _build_counts_route(args, result):
    return "exact" if args.get("precision") is None else "mpf"


def _one_minus_pow_route(args, result):
    return "exact" if isinstance(result, Fraction) else "float"


def _count_build_counts(tracer, name, args, table):
    tracer.add(f"{name}.cells", (table.horizon + 1) * len(table.grammar.nonterminals))
    if table.precision is None:
        tracer.maximum(f"{name}.max_bits", _exact_bits(table.total(table.horizon)))


def _count_letters(tracer, name, args, word):
    tracer.add(f"{name}.letters", len(word))


def _count_classes(tracer, name, args, spectra):
    tracer.add(f"{name}.classes", sum(len(s.classes) for s in spectra if s is not None))


def _count_trials(tracer, name, args, result):
    tracer.add(f"{name}.trials", result.trials)


class Target:
    """One traced function: where it is defined, its span name, and how to
    pick a route and read counts from a call."""

    def __init__(self, module, attr, route=None, routes=(), count=None):
        self.module = module
        self.attr = attr
        self.span = f"{module}.{attr}"
        self.route = route      # (bound arguments, result) -> one of routes
        self.routes = routes
        self.count = count

    def span_names(self):
        return [f"{self.span}.{r}" for r in self.routes] or [self.span]


TARGETS = (
    Target("grammar", "normalize"),
    Target("counting", "build_counts", _build_counts_route, ("exact", "mpf"),
           _count_build_counts),
    Target("counting", "weight_spectra", count=_count_classes),
    Target("counting", "extreme_weights"),
    Target("sampler", "sample_word", count=_count_letters),
    Target("urns", "from_spectrum"),
    Target("urns", "birthday_exact"),
    Target("urns", "expected_distinct"),
    Target("urns", "expected_coverage"),
    Target("urns", "expected_occupied_weight"),
    Target("urns", "coupon_bounds"),
    Target("urns", "standard_report"),
    Target("urns", "simulate", count=_count_trials),
    Target("numerics", "one_minus_pow", _one_minus_pow_route, ("exact", "float")),
    Target("asymptotics", "estimate_singularity"),
    Target("asymptotics", "check_conditions"),
    Target("asymptotics", "collision_envelope"),
    Target("rna", "pair_spectrum"),
    Target("rna", "rna_rho"),
    Target("rna", "rna_report"),
    Target("rna", "coverage_rows"),
)


def span_names() -> list:
    return [name for t in TARGETS for name in t.span_names()]


def counter_names() -> list:
    return ["sampler.sample_word.letters",
            "counting.build_counts.exact.cells",
            "counting.build_counts.mpf.cells",
            "counting.build_counts.exact.max_bits",
            "counting.weight_spectra.classes",
            "urns.simulate.trials"]


class Tracer:
    """Span statistics and counters collected by the installed wrappers."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in span_names()}  # calls, total, self
        self.counters = {name: 0 for name in counter_names()}
        self._child_time = []  # one accumulator per open span
        self._installed = []   # (module, attribute name, original object)

    def add(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def _record(self, name, total, self_time):
        entry = self.spans[name]
        entry[0] += 1
        entry[1] += total
        entry[2] += self_time

    def _wrap(self, target, orig):
        signature = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
            name = target.span
            bound = None
            if target.route is not None or target.count is not None:
                bound = signature.bind(*args, **kwargs).arguments
            if target.route is not None:
                name = f"{name}.{target.route(bound, result)}"
            self._record(name, elapsed, elapsed - children)
            if target.count is not None:
                target.count(self, name, bound, result)
            return result

        setattr(wrapper, MARK, target.span)
        return wrapper

    def install(self):
        """Wrap every binding of every target inside the weightedgen package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for target in TARGETS:
            orig = getattr(modules[f"weightedgen.{target.module}"], target.attr)
            if hasattr(orig, MARK):
                raise RuntimeError(f"{target.span} is already wrapped")
            wrapper = self._wrap(target, orig)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._installed):
            setattr(mod, name, orig)
        self._installed = []

    def metrics(self) -> dict:
        out = {}
        for name, (calls, total, self_time) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_time
        out.update(self.counters)
        exact = self.spans["numerics.one_minus_pow.exact"][0]
        routed = exact + self.spans["numerics.one_minus_pow.float"][0]
        out["numerics.one_minus_pow.exact_share"] = exact / routed if routed else 0.0
        return out


def _package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "weightedgen" or name.startswith("weightedgen."))}


def originals() -> dict:
    """Identity of every target's defining binding, taken before any install."""
    modules = _package_modules()
    return {t.span: getattr(modules[f"weightedgen.{t.module}"], t.attr) for t in TARGETS}


def assert_pristine(expected: dict):
    """Raise unless no weightedgen module binds a wrapper, and every target's
    defining binding is the original function object."""
    modules = _package_modules()
    for mod_name, mod in modules.items():
        for name, value in vars(mod).items():
            if inspect.isfunction(value) and hasattr(value, MARK):
                raise RuntimeError(f"{mod_name}.{name} is still a traced wrapper")
    for t in TARGETS:
        if getattr(modules[f"weightedgen.{t.module}"], t.attr) is not expected[t.span]:
            raise RuntimeError(f"{t.span} is not the original function object")
