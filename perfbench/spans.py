"""Spans around each layer's public entry points, installed at run time.

Every public function of a ``whitney`` module, and every public method
and arithmetic operator of a public class, is replaced by a wrapper that
records a span: name, start, end, parent span and job.  A name that
another module re-imported (``identities.whitney2_row``, ``cli.rat_str``)
is rebound to the same wrapper, so every caller is seen.  Private helpers
and the ``coeff`` accessors are not wrapped: their time, and the Fraction
arithmetic they do, counts toward the entry point that called them.

A span's self time is its duration minus the durations of its child
spans.  Spans are kept in flat arrays, because a registry run makes about
a million row lookups, and written out once the job list is done.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "identities", "triangles", "riordan", "series", "poly", "operators", "grammar", "enumeration", "qformat")
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__call__")
ACCESSORS = ("coeff",)
SERIES_OPS = ("mul", "inv", "exp", "log", "pow", "compose", "reverse", "reverse_lagrange")

# sub-groups of the triangles layer that have their own metrics
TRIANGLE_GROUPS = {
    "row": ("whitney2_row", "whitney1_row", "m_stirling2_row", "m_stirling1_row"),
    "egf_row": ("whitney2_row_egf", "whitney1_row_egf"),
    "classical": ("bernoulli_numbers", "euler_zero_values", "cauchy_numbers", "bell_numbers", "classical_seq"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")  # per span: index into names
        self.parent = array("i")  # per span: index of the parent span, or -1
        self.start = array("d")
        self.end = array("d")
        self.failed = []  # indices of spans that raised
        self.job_starts = []  # (first span index, job id)
        self.stack = []
        self.rows_seen = set()
        self.row_repeats = 0
        self.entries_copied = 0
        self.max_order = 0

    def begin_job(self, job):
        self.job_starts.append((len(self.start), job))

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_of, parent, start, end, stack, failed = (
            self.name_of, self.parent, self.start, self.end, self.stack, self.failed)

        def open_span():
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            return i

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                i = open_span()
                t0 = clock()
                try:
                    yield from fn(*args, **kwargs)
                except GeneratorExit:  # the consumer stopped early; not an error
                    raise
                except BaseException:
                    failed.append(i)
                    raise
                finally:
                    end[i] = clock()
                    start[i] = t0
                    stack.pop()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                start[i] = t0
                stack.pop()
                failed.append(i)
                raise
            end[i] = clock()
            start[i] = t0
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_row(self, fn_name):
        def observe(args, result):
            key = (fn_name, args)
            if key in self.rows_seen:
                self.row_repeats += 1
            else:
                self.rows_seen.add(key)
            self.entries_copied += len(result)

        return observe

    def _observe_series(self, args, result):
        for v in (args[0] if args else None, result):
            if type(v).__name__ == "Egf" and v.order > self.max_order:
                self.max_order = v.order

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the entry points of every layer."""
        modules = {layer: importlib.import_module("whitney." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    observe = None
                    if layer == "triangles" and attr in TRIANGLE_GROUPS["row"]:
                        observe = self._observe_row(attr)
                    elif layer == "series":
                        observe = self._observe_series
                    wrappers[obj] = self.wrap(obj, "%s.%s" % (layer, attr), observe)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in list(modules.values()) + [importlib.import_module("whitney")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap_class(self, cls, layer):
        observe = self._observe_series if layer == "series" else None
        for attr, obj in list(vars(cls).items()):
            if attr in ACCESSORS or (attr.startswith("_") and attr not in ARITHMETIC):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(obj.__func__, name, observe)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(obj, name, observe))

    # -- results --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        self_s = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= own[i]
        return self_s

    def summary(self):
        """Per-layer metrics from the spans recorded so far."""
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        for nid, s in zip(self.name_of, self.self_times()):
            calls[self.names[nid]] += 1
            self_by_name[self.names[nid]] += s
        errors = defaultdict(int)
        for i in self.failed:
            errors[self.names[self.name_of[i]].split(".", 1)[0]] += 1

        def total(what, names):
            return sum(what[n] for n in names)

        by_layer = defaultdict(list)
        for name in calls:
            by_layer[name.split(".", 1)[0]].append(name)
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = total(calls, by_layer[layer])
            out[layer + ".self_s"] = total(self_by_name, by_layer[layer])
            out[layer + ".errors"] = errors[layer]
        for group, fns in TRIANGLE_GROUPS.items():
            names = ["triangles." + f for f in fns]
            out["triangles.%s.calls" % group] = total(calls, names)
            out["triangles.%s.self_s" % group] = total(self_by_name, names)
        row_calls = out["triangles.row.calls"]
        out["triangles.row.entries_copied"] = self.entries_copied
        out["triangles.row.repeat_ratio"] = self.row_repeats / row_calls if row_calls else 0.0
        for op in SERIES_OPS:
            out["series.%s.self_s" % op] = self_by_name["series.Egf." + op]
        out["series.max_order"] = self.max_order
        out["riordan.inverse.self_s"] = self_by_name["riordan.ExpRiordan.inverse"]
        out["identities.exact_det.self_s"] = self_by_name["identities.exact_det"]
        return out

    def dump(self, path):
        """Write every span, column by column, as gzip-compressed JSON."""
        job = []
        bounds = self.job_starts + [(len(self.start), None)]
        for (first, j), (nxt, _) in zip(bounds, bounds[1:]):
            job += [j] * (nxt - first)
        job = [-1] * (len(self.start) - len(job)) + job
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "name": self.name_of.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "job": job,
                "failed": self.failed,
            }, fh)
