"""Outside-in tracing of the conelab package.

`Tracer.install` replaces every public function and public method of the
package's modules with a timing wrapper.  It also rebinds the names other
modules imported with ``from .x import y`` and the function lists kept in
module globals (``verify.ALL_CHECKS``), so cross-module calls are seen too.
No library file is changed; the patches live in the traced process only.

Every wrapped call adds to per-function aggregates: call count, inclusive
time and self time (inclusive time minus the time of wrapped calls nested
inside it).  Coarse calls also get a span with a link to the enclosing span.
Leaf calls (the lattice and linear-algebra primitives and the Cremona
reflection, hundreds of thousands per run) are aggregated only.  A coarse
function that passes `SPAN_CAP` spans is aggregated only from then on, so
memory stays bounded; the number of spans left out is reported.

Generator functions are not wrapped: their time belongs to whoever iterates.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

SPAN_CAP = 2000
LEAF_MODULES = ("lattice", "linalg")
LEAF_FUNCTIONS = ("cremona.reflect",)
# DivisorClass construction and arithmetic are lattice leaves as well.
DIVISOR_DUNDERS = ("__post_init__", "__add__", "__sub__", "__neg__", "__rmul__", "__mul__")


def _observe_dd(first_arg, result, counters):
    counters["cones.dd.ineqs_in"] += len(first_arg)
    counters["cones.dd.rays_out"] += len(result[0])


def _observe_lp(first_arg, result, counters):
    counters["exactlp.lp.columns"] += len(first_arg)
    counters["exactlp.lp.feasible"] += result is not None


# Functions whose arguments and results feed work counters.
OBSERVERS = {
    "cones.extreme_rays_h": _observe_dd,
    "exactlp.nonnegative_combination": _observe_lp,
}


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        # [name, parent span index or -1, start, end]; filled in on return
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.origin = time.perf_counter()
        self._child_time = [0.0]  # one entry per open wrapped call, plus the root
        self._open_spans: list[int] = []
        self._wrappers: dict = {}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter
        observer = OBSERVERS.get(name)
        counters = self.counters

        if leaf:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                child_time.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child_time.pop()
                    child_time[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner
            return wrapper

        spans = self.spans
        open_spans = self._open_spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = None
            if stat[0] < SPAN_CAP:
                span = [name, open_spans[-1] if open_spans else -1, 0.0, None]
                spans.append(span)
                open_spans.append(len(spans) - 1)
            else:
                tracer.spans_dropped += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child_time.pop()
                child_time[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if span is not None:
                    open_spans.pop()
                    span[2] = t0 - tracer.origin
                    span[3] = t1 - tracer.origin
            if observer is not None:
                observer(args[0] if args else next(iter(kwargs.values())), result, counters)
            return result
        return wrapper

    def _wrapper_for(self, name: str, fn):
        if fn not in self._wrappers:
            module = name.split(".", 1)[0]
            leaf = module in LEAF_MODULES or name in LEAF_FUNCTIONS
            self._wrappers[fn] = self._wrap(name, fn, leaf)
        return self._wrappers[fn]

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions and methods defined in `modules` (the
        package's submodules, keyed by short name) and rebind every
        reference to them held in module globals."""
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    self._wrapper_for(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    self._install_class(short, value)
        originals = self._wrappers
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(mod, attr, originals[value])
                elif isinstance(value, list):
                    _rebind(value, originals)
                elif isinstance(value, dict):
                    for item in value.values():
                        if isinstance(item, list):
                            _rebind(item, originals)

    def _install_class(self, short: str, cls) -> None:
        divisor_class = short == "lattice" and cls.__name__ == "DivisorClass"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (divisor_class and attr in DIVISOR_DUNDERS):
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            label = "DivisorClass" if attr == "__post_init__" else f"{cls.__name__}.{attr}"
            wrapper = self._wrapper_for(f"{short}.{label}", fn)
            setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def calls_by_module(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, (calls, _, _) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0) + calls
        return out

    def dump(self, path, info: dict) -> None:
        """Write the spans and aggregates, once, at the end of the run."""
        doc = {
            "info": info,
            "spans": [
                {"id": i, "parent": parent, "name": name, "start_s": start, "end_s": end}
                for i, (name, parent, start, end) in enumerate(self.spans)
            ],
            "spans_dropped": self.spans_dropped,
            "functions": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.stats.items())
                if c
            },
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(items: list, originals: dict) -> None:
    """Replace every wrapped function in a list (`verify.ALL_CHECKS`)."""
    for i, item in enumerate(items):
        if inspect.isfunction(item) and item in originals:
            items[i] = originals[item]
