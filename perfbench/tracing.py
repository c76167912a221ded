"""Benchmark-side tracing of the waveslab layers.

`Tracer.installed()` wraps every public function and public method of the
package's modules for the duration of a `with` block and restores the
originals afterwards, so untraced passes run the unmodified package.  Each
wrapped call records one span `(name, start, end, parent)` in memory; spans
are written out once, when the benchmark ends.

Besides spans the tracer keeps counters the spans cannot give:

- factorizations, their time and the nnz of their factors, by wrapping the
  sparse-LU entry point that `slabsolver` calls (`spla.splu`);
- calls of the forcing `f` and of the exact solution (`u`, `du`, `ux`,
  `uy`), by wrapping the callables of every case `make_case` returns;
- distinct `(p, tau)` pairs per march, adaptive iterations and marked
  slabs, by looking at arguments and return values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = (
    "timebasis", "spacefem", "slabsolver", "reconstruct", "estimator",
    "errors", "adaptive", "experiments",
)
# Spans the benchmark opens itself around setup and each operation.
BENCH = "bench"


def _tau_key(tau: float) -> str:
    # Equal slab lengths computed along different float paths differ in
    # the last bits; ten significant digits identify them.
    return f"{tau:.9e}"


class _SpluProxy:
    """Stands in for `scipy.sparse.linalg` inside `slabsolver`."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.passes: list[list[tuple]] = []
        self.counters: list[Counter] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, observe=None):
        """Wrap `fn` so each call records a span; `observe(args, kwargs, out)`
        may update counters from the call."""
        name_id = self._name_id(name)
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself around a block."""
        index = len(self._spans)
        self._spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._spans[index] = (self._name_id(name), start, end, parent)

    def _counted(self, key: str, fn):
        counts = self._counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Trace one pass: patch the package, yield, restore, keep the spans."""
        self._spans, self._stack, self._counts = [], [], Counter()
        undo: list = []
        try:
            self._patch(undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self.passes.append(self._spans)
            self.counters.append(self._counts)

    def _patch(self, undo):
        modules = {name: importlib.import_module(f"waveslab.{name}") for name in LAYERS}
        holders = [importlib.import_module("waveslab"), *modules.values()]
        observers = self._observers()

        def replace_everywhere(original, wrapped):
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, attr, value))
                        setattr(holder, attr, wrapped)

        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._patch_class(layer, value, undo, observers)
                elif callable(value):
                    name = f"{layer}.{attr}"
                    inner = self._count_cases(value) if name == "errors.make_case" else value
                    replace_everywhere(value, self.span(name, inner, observers.get(name)))

        slabsolver = modules["slabsolver"]
        spla = slabsolver.spla
        undo.append((slabsolver, "spla", spla))
        slabsolver.spla = _SpluProxy(
            spla, self.span("slabsolver.splu", spla.splu, observers["slabsolver.splu"])
        )

    def _patch_class(self, layer, cls, undo, observers):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.span(name, raw.__func__, observers.get(name)))
            elif inspect.isfunction(raw):
                wrapped = self.span(name, raw, observers.get(name))
            else:
                continue
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    # -- counters from arguments and results -------------------------------

    def _observers(self):
        counts = self._counts

        def march(args, kwargs, sol):
            grid = sol.grid
            pairs = {
                (int(grid.degrees[n]), _tau_key(float(grid.nodes[n + 1] - grid.nodes[n])))
                for n in range(grid.n_intervals)
            }
            counts["distinct_p_tau"] += len(pairs)

        def doerfler_mark(args, kwargs, marked):
            indicators = args[0] if args else kwargs["indicators"]
            counts["marked"] += len(marked)
            counts["mark_candidates"] += len(indicators)

        def run_adaptive(args, kwargs, result):
            counts["adaptive_iterations"] += len(result.history)

        def splu(args, kwargs, lu):
            counts["factor_nnz"] += int(lu.L.nnz + lu.U.nnz)

        return {
            "slabsolver.splu": splu,
            "slabsolver.march": march,
            "adaptive.doerfler_mark": doerfler_mark,
            "adaptive.run_adaptive": run_adaptive,
        }

    def _count_cases(self, make_case):
        """`make_case` returning cases with counted forcing and exact solution."""

        @functools.wraps(make_case)
        def counted_make_case(*args, **kwargs):
            case = make_case(*args, **kwargs)
            return dataclasses.replace(
                case,
                f=self._counted("f_evals", case.f),
                u=self._counted("exact_evals", case.u),
                du=self._counted("exact_evals", case.du),
                ux=self._counted("exact_evals", case.ux),
                uy=self._counted("exact_evals", case.uy),
            )

        return counted_make_case

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self, index: int) -> dict:
        """Per-layer numbers of one traced pass."""
        spans = self.passes[index]
        counts = self.counters[index]
        names = self.names
        total = Counter()
        calls = Counter()
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            total[names[name_id]] += end - start
            calls[names[name_id]] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        for i, (name_id, start, end, _) in enumerate(spans):
            self_time[names[name_id].split(".")[0]] += (end - start) - child_time[i]

        def seconds(*keys):
            return sum(total[k] for k in keys)

        def count(*keys):
            return sum(calls[k] for k in keys)

        factorizations = calls["slabsolver.splu"]
        distinct = counts["distinct_p_tau"]
        candidates = counts["mark_candidates"]
        out = {
            "spacefem.setup_s": seconds("spacefem.TensorSpace.__init__"),
            "slabsolver.march_s": seconds("slabsolver.march"),
            "slabsolver.factorizations": factorizations,
            "slabsolver.factorize_s": seconds("slabsolver.splu"),
            "slabsolver.factor_nnz": counts["factor_nnz"],
            "slabsolver.setup_excess": factorizations / distinct if distinct else 0.0,
            "slabsolver.f_evals": counts["f_evals"],
            "slabsolver.stability_s": seconds("slabsolver.stability_check"),
            "spacefem.load_vector_calls": count("spacefem.TensorSpace.load_vector"),
            "spacefem.eval_calls": count(
                "spacefem.TensorSpace.eval_gauss",
                "spacefem.TensorSpace.eval_grad_gauss",
                "spacefem.TensorSpace.eval_laplacian_gauss",
            ),
            "timebasis.poly_evals": count("timebasis.IntervalPoly.eval"),
            "errors.compute_errors_s": seconds("errors.compute_errors"),
            "errors.exact_evals": counts["exact_evals"],
            "estimator.estimate_s": seconds("estimator.estimate"),
            "estimator.eta1_s": seconds("estimator.eta1"),
            "estimator.eta2_s": seconds("estimator.eta2_terms"),
            "estimator.osc_s": seconds("estimator.osc_terms"),
            "adaptive.iterations": counts["adaptive_iterations"],
            "adaptive.mark_s": seconds("adaptive.doerfler_mark", "adaptive.bisect"),
            "adaptive.marked_frac": counts["marked"] / candidates if candidates else 0.0,
            "experiments.parse_s": seconds("experiments.parse_config"),
            "experiments.emit_s": seconds("experiments.emit_csv"),
            "trace.spans": len(spans),
        }
        for layer in (BENCH, *LAYERS):
            if layer != "reconstruct":  # on no workload's path
                out[f"{layer}.self_s"] = self_time[layer]
        return out

    def write(self, path, header: dict) -> None:
        """Write every recorded span, gzipped JSON, one list per traced pass."""
        payload = dict(header)
        payload["span_fields"] = ["name", "start", "end", "parent"]
        payload["names"] = self.names
        payload["passes"] = [
            {"spans": [list(s) for s in spans], "counters": dict(counts)}
            for spans, counts in zip(self.passes, self.counters)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
