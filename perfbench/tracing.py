"""Layer tracing for the perfbench workloads, installed from outside ``lpreset``.

``Tracer.install()`` replaces every public function of each ``lpreset``
module (its ``__all__``) with a wrapper, in every ``lpreset`` module that
bound the function by name: ``strategies`` and ``utility`` call
``build_reset_chain`` through their own imports, so wrapping only ``markov``
would miss them. A few methods are wrapped on their classes.

Calls that happen once or a few times per command record a span (name,
start, end, parent, op id). Per-step scalars (one call per simulated step or
per price) would drown the run in spans, so they get an accumulated counter
and timer instead. Self time is a span's duration minus the time covered by
its child spans and counted calls; the wrappers' own bookkeeping lands in
the caller's self time, which the traced/untraced p90 ratio of a run shows.
Spans stay in memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import lpreset
from lpreset.errors import LpresetError

MODULES = (
    "bins",
    "distribution",
    "markov",
    "utility",
    "optimizer",
    "strategies",
    "simulate",
    "backtest",
    "cli",
)

# Public functions called once per step or per price.
SCALAR_FUNCTIONS = {"exp_utility", "reward", "transition_prob", "reset_prob"}

# (module, class, method, per-step scalar?)
METHODS = (
    ("utility", "Allocation", "weight", True),
    ("bins", "BinGrid", "price_to_bin", True),
    ("distribution", "NextPriceDistribution", "load", False),
    ("backtest", "BacktestReport", "write_band_csv", False),
)


def _n_tau(args: tuple, kwargs: dict) -> int:
    return kwargs["n_tau"] if "n_tau" in kwargs else args[1]


class Tracer:
    """Span and counter collector; one per traced run."""

    def __init__(self) -> None:
        self.op_id = 0
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, self_s)
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.errors: dict[str, int] = {m: 0 for m in MODULES}
        self.chain_n_taus: dict[int, set] = defaultdict(set)  # op -> distinct n_tau
        self.solve_iterations = 0
        self.kkt_residual_max = 0.0
        self.csv_rows = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._names: set[str] = set()

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        """Wrap the public functions and the traced methods of every module."""
        if self._patches:
            return
        mods = {name: importlib.import_module(f"lpreset.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(short, attr, fn, attr in SCALAR_FUNCTIONS)
        for mod in (lpreset, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for short, cls_name, meth, scalar in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(short, name, raw.__func__, scalar))
            else:
                wrapped = self._wrap(short, name, raw, scalar)
            self._patch(cls, meth, wrapped)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module: str, name: str, fn, scalar: bool):
        full = f"{module}.{name}"
        self._names.add(full)
        if scalar:
            return self._counted(module, full, fn)
        return self._spanned(module, full, fn, self._observer(full))

    def _spanned(self, module: str, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            tracer._next_id += 1
            entry = [tracer._next_id, 0.0]
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except LpresetError as exc:
                tracer._count_error(module, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (tracer.op_id, entry[0], parent, name, start, end, end - start - entry[1])
                )
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, module: str, name: str, fn):
        tracer = self
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except LpresetError as exc:
                tracer._count_error(module, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                counter[0] += 1
                counter[1] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return wrapper

    def _observer(self, name: str):
        if name == "markov.build_reset_chain":
            return lambda a, k, r: self.chain_n_taus[self.op_id].add(_n_tau(a, k))
        if name == "optimizer.solve":
            return self._observe_solution
        if name == "distribution.load_price_csv":
            return self._observe_series
        if name == "cli.main":
            return self._observe_exit
        return None

    def _observe_solution(self, args, kwargs, solution) -> None:
        self.solve_iterations += int(solution.iterations)
        self.kkt_residual_max = max(self.kkt_residual_max, float(solution.kkt_residual))

    def _observe_series(self, args, kwargs, series) -> None:
        self.csv_rows += len(series)

    def _observe_exit(self, args, kwargs, code) -> None:
        if code != 0:
            self.errors["cli"] += 1

    def _count_error(self, module: str, exc: LpresetError) -> None:
        """Count an error once per module it escapes, however deep the nesting.

        ``cli.main`` turns every error into exit code 1, which
        ``_observe_exit`` counts, so errors inside ``cli`` are not counted here.
        """
        if module == "cli":
            return
        seen = exc.__dict__.setdefault("_perfbench_modules", set())
        if module not in seen:
            seen.add(module)
            self.errors[module] += 1

    # ------------------------------------------------------------ results

    def per_op(self, ops: int) -> dict[str, float]:
        """Layer metrics averaged over ``ops`` traced ops."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span[3]] += 1
            self_s[span[3]] += span[6]
        for name, (count, seconds) in self.counters.items():
            calls[name] += count
            self_s[name] += seconds
        chains = calls["markov.build_reset_chain"]
        distinct = sum(len(s) for s in self.chain_n_taus.values())
        out = {
            "markov.build_reset_chain.distinct_ratio": distinct / chains if chains else 0.0,
            "optimizer.solve.iterations": self.solve_iterations / ops,
            "optimizer.solve.kkt_residual_max": self.kkt_residual_max,
            "distribution.load_price_csv.rows": self.csv_rows / ops,
        }
        for name in self._names:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / ops
        for module, count in self.errors.items():
            out[f"{module}.errors"] = count / ops
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: op,id,parent,name,start_s,end_s,self_s."""
        with open(path, "w") as fh:
            fh.write("op,id,parent,name,start_s,end_s,self_s\n")
            for op, sid, parent, name, start, end, own in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{start!r},{end!r},{own!r}\n")
