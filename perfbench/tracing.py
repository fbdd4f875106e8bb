"""Per-layer tracing of twinvest, installed from outside the package.

Wrappers replace every module-level binding of the traced functions (the
twinvest modules import one another with ``from ... import``, so one
function can be bound under several modules) and the ``value`` and
``derivative`` methods of ``ParametricFamily``.  Three kinds of wrapper:

* span: coarse calls.  A span records name, start, end and the index of
  the span open when it started.  Spans stay in memory and are written out
  when the run ends.  Self time is a span's duration minus the time its
  child spans and leaf timers cover.
* counter: hot scalar functions (``evaluate``, the family methods, the
  ``contracts`` formulas), which a sweep calls millions of times.  Counts
  only, so their time stays in the enclosing span's self time.
* leaf timer: ``report.format_number``, called thousands of times per CSV;
  count and summed time, charged to the enclosing span as child time.

Everything is removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import math
import sys
import time

CONTRACT_FORMULAS = (
    "delta_pi",
    "outcome_separability",
    "optimal_contract",
    "agent_surplus",
    "principal_surplus",
    "surpluses",
    "effort_inducement_check",
    "social_total_surplus",
    "displacement_deterrent_margin",
    "displacement_deterrent_margin_raw",
    "displacement_deterrent_check",
    "should_offer_twin",
)

# (module, function) pairs that get a span.
SPANNED = (
    ("cli", "main"),
    ("config", "load_model_file"),
    ("model", "validate"),
    ("investment", "optimal_investment"),
    ("investment", "deterrent_sign_change_roots"),
    ("investment", "displacement_threshold"),
    ("investment", "classify_regime"),
    ("optimize", "golden_section_max"),
    ("optimize", "bisect_bracket"),
    ("sweep", "regime_sweep"),
    ("oracle", "brute_force_contract"),
    ("oracle", "brute_force_investment"),
    ("oracle", "brute_force_effort"),
    ("oracle", "brute_force_two_period"),
    ("oracle", "certify_contract"),
    ("oracle", "certify_investment"),
    ("oracle", "certify_regimes"),
    ("oracle", "certify_two_period"),
    ("oracle", "certify_continuous"),
    ("continuous", "principal_optimal_effort"),
    ("continuous", "validate_continuous"),
    ("dynamics", "simulate_two_period"),
    ("dynamics", "simulate_cycles"),
    ("sampling", "random_models"),
    ("sampling", "random_model"),
    ("sampling", "random_continuous_model"),
)

COUNTED = (("model", "evaluate"), ("model", "evaluate_grid"), ("continuous", "principal_surplus_at")) + tuple(
    ("contracts", name) for name in CONTRACT_FORMULAS
)

LEAF_TIMED = (("report", "format_number"),)

# Positional index of ``max_iter`` in the refinement helpers' signatures.
_MAX_ITER_POS = {"optimize.golden_section_max": 4, "optimize.bisect_bracket": 6}

REGIMES = ("NoInvestment", "MaxInvestment", "Interior", "Indeterminate")

# Metrics computed outside the per-function wrappers (the worker adds the
# last three).
EXTRA_METRICS = (
    "families.points", "families.scalar_calls", "contracts.calls", "optimize.cap_hits",
    "oracle.brute_force_contract.pairs", "sweep.cell_p50_ms", "sweep.cell_p99_ms",
    "investment.binding_ratio", "sweep.valid_cell_ratio", "sampling.accept_ratio",
    "trace_overhead_ratio", "cli.out_bytes", "twinvest.import_s",
)


def known_metric_names() -> set[str]:
    """Every per-layer metric name the tracer and worker can produce."""
    names = set(EXTRA_METRICS)
    for mod, fn in SPANNED + LEAF_TIMED:
        names.update(f"{mod}.{fn}.{key}" for key in ("calls", "total_s", "self_s"))
    names.update(f"{mod}.{fn}.calls" for mod, fn in COUNTED)
    names.update(f"families.{m}.calls" for m in ("value", "derivative"))
    names.update(f"{name}.f_evals" for name in _MAX_ITER_POS)
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, leaf_s]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.f_evals: dict[str, int] = {}
        self.cap_hits = 0
        self.pairs = 0
        self.points = 0
        self.scalar_calls = 0
        self.solutions: list = []  # optimal_investment results
        self.efforts: list = []  # principal_optimal_effort results
        self.validations: list[tuple[bool, int]] = []  # (passed, parent span)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        evals_pos = _MAX_ITER_POS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted = None
            if evals_pos is not None:
                counted, args, kwargs = self._count_evals(args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counted is not None:
                self._end_evals(name, counted[0], args, kwargs, evals_pos)
            if hook is not None:
                hook(result, args, kwargs, rec[3])
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts
        cell.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts, leaf_s = self.counts, self.leaf_s
        counts.setdefault(name, 0)
        leaf_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            counts[name] += 1
            leaf_s[name] += dt
            if stack:
                spans[stack[-1]][4] += dt
            return result

        return wrapper

    def _family_method(self, name, fn):
        from numpy import ndarray

        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(family, v):
            counts[name] += 1
            if isinstance(v, ndarray):
                self.points += v.size
            else:
                self.points += 1
                self.scalar_calls += 1
            return fn(family, v)

        return wrapper

    def _count_evals(self, args, kwargs):
        counted = [0]
        f = args[0] if args else kwargs.pop("f")

        def counting(x):
            counted[0] += 1
            return f(x)

        return counted, (counting,) + tuple(args[1:]), kwargs

    def _end_evals(self, name, evals, args, kwargs, pos):
        self.f_evals[name] = self.f_evals.get(name, 0) + evals
        max_iter = kwargs.get("max_iter", args[pos] if len(args) > pos else 200)
        if evals >= max_iter:
            self.cap_hits += 1

    # -- result hooks: _on_<module>_<function> runs after each spanned call ----

    def _on_oracle_brute_force_contract(self, result, args, kwargs, parent):
        model = args[0]
        step = kwargs.get("payment_step", args[2] if len(args) > 2 else 1e-3)
        num = max(int(math.ceil(max(model.s_high, 0.0) / step)), 1) + 1
        self.pairs += num * num

    def _on_investment_optimal_investment(self, result, args, kwargs, parent):
        self.solutions.append((result, args[0].v_max))

    def _on_continuous_principal_optimal_effort(self, result, args, kwargs, parent):
        self.efforts.append(result)

    def _on_model_validate(self, result, args, kwargs, parent):
        self.validations.append((result.passed, parent))

    # -- installation --------------------------------------------------------

    def install(self):
        import twinvest.families

        modules = [m for n, m in sorted(sys.modules.items()) if n == "twinvest" or n.startswith("twinvest.")]
        for kind, targets in ((self._span, SPANNED), (self._counter, COUNTED), (self._leaf, LEAF_TIMED)):
            for mod_name, fn_name in targets:
                original = getattr(sys.modules["twinvest." + mod_name], fn_name)
                wrapper = kind(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        family = twinvest.families.ParametricFamily
        for method in ("value", "derivative"):
            original = family.__dict__[method]
            self._patches.append((family, method, original))
            setattr(family, method, self._family_method(f"families.{method}", original))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.write(f"{i},{name},{start!r},{end!r},{parent}\n")

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total time and self time, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, leaf in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, parent, leaf), covered in zip(self.spans, child):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += (end - start) - covered - leaf
        return stats

    def _spans_named(self, *names: str) -> set[int]:
        return {i for i, rec in enumerate(self.spans) if rec[0] in names}

    def cell_times_ms(self) -> list[float]:
        """Sweep cells: a validate span plus the optimal_investment span after it."""
        sweeps = self._spans_named("sweep.regime_sweep")
        cells: list[float] = []
        for name, start, end, parent, _ in self.spans:
            if parent not in sweeps:
                continue
            if name == "model.validate":
                cells.append(end - start)
            elif name == "investment.optimal_investment" and cells:
                cells[-1] += end - start
        return [1000.0 * c for c in cells]

    def metrics(self, per_layer_names) -> dict[str, float]:
        """Every per-layer metric named in BENCHMARK.json (0 where a layer is idle)."""
        out: dict[str, float] = {}
        stats = self.span_stats()
        for name, s in stats.items():
            for key, value in s.items():
                out[f"{name}.{key}"] = value
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        for name, seconds in self.leaf_s.items():
            out[f"{name}.self_s"] = seconds
            out[f"{name}.total_s"] = seconds
        for name, n in self.f_evals.items():
            out[f"{name}.f_evals"] = n
        out["families.points"] = self.points
        out["families.scalar_calls"] = self.scalar_calls
        out["contracts.calls"] = sum(self.counts.get(f"contracts.{n}", 0) for n in CONTRACT_FORMULAS)
        out["optimize.cap_hits"] = self.cap_hits
        out["oracle.brute_force_contract.pairs"] = self.pairs

        cells = self.cell_times_ms()
        out["sweep.cell_p50_ms"] = percentile(cells, 0.50) if cells else 0.0
        out["sweep.cell_p99_ms"] = percentile(cells, 0.99) if cells else 0.0

        out["investment.binding_ratio"] = _share(s.deterrent_binding for s, _ in self.solutions)
        sweeps = self._spans_named("sweep.regime_sweep")
        out["sweep.valid_cell_ratio"] = _share(p for p, parent in self.validations if parent in sweeps)
        sampler = self._sampler_spans()
        drawn = sum(
            1 for name, _, _, parent, _ in self.spans
            if parent in sampler and name in ("model.validate", "continuous.validate_continuous")
        )
        out["sampling.accept_ratio"] = len(sampler) / drawn if drawn else 0.0
        return {name: out.get(name, 0) for name in per_layer_names}

    def _sampler_spans(self) -> set[int]:
        return self._spans_named("sampling.random_model", "sampling.random_continuous_model")

    def traffic(self) -> dict[str, float]:
        """Input properties seen by the solvers: shares of the traced calls.

        Regime mix, binding constraint and displacement threshold inside
        ``(0, v_max)`` over ``optimal_investment`` results; invalid models
        over ``validate`` calls outside the random-model sampler; binding
        liability floor over ``principal_optimal_effort`` results.
        """
        sols = self.solutions
        out = {"solves": len(sols)}
        for regime in REGIMES:
            out[f"{regime}_share"] = _share(s.regime.value == regime for s, _ in sols)
        out["binding_share"] = _share(s.deterrent_binding for s, _ in sols)
        out["displaced_share"] = _share(
            s.displacement_threshold is not None and 0.0 < s.displacement_threshold < v_max
            for s, v_max in sols
        )
        sampler = self._sampler_spans()
        outside = [passed for passed, parent in self.validations if parent not in sampler]
        out["invalid_share"] = _share(not p for p in outside)
        out["liability_binding_share"] = _share(e.liability_binding for e in self.efforts)
        return out


def _share(flags) -> float:
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

