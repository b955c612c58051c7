"""Span tracing of rmtkit's layers, installed from outside the package.

Every public function of each layer module (the names in its ``__all__``),
every public method of the classes it exports, and the cached
eigendecomposition behind ``CorrelationMatrix.eigenvalues``/``eigenvectors``
are replaced by wrappers that record a span: name, start, end and the
enclosing span.  Module-level copies that other rmtkit modules hold (for
example ``cli.pearson``) are rebound to the same wrappers.  Functions called
thousands of times per operation only count their calls, so that tracing
does not swamp them; their time falls to the span that called them.

``instrument`` returns the list of patches; ``restore`` undoes them, so one
process can run untraced and traced passes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# layer name -> module; the layers are rmtkit's modules
LAYERS = {
    "cli": "rmtkit.cli",
    "fileio": "rmtkit.fileio",
    "estimators": "rmtkit.estimators",
    "cleaning": "rmtkit.cleaning",
    "spikes": "rmtkit.spikes",
    "portfolio": "rmtkit.portfolio",
    "crosscorr": "rmtkit.crosscorr",
    "synth": "rmtkit.synth",
    "spectra": "rmtkit.spectra",
    "transforms": "rmtkit.transforms",
    "density": "rmtkit.density",
    "kernels": "rmtkit.kernels",
    "dynamics": "rmtkit.dynamics",
}

# Called from inside root-finding loops (10^4 to 10^6 times per operation):
# counted, no span.
COUNT_ONLY = frozenset({
    "transforms.resolvent",
    "transforms.resolvent_derivative",
    "transforms.blue",
    "density.SpectralDensity.continuous_mass",
    "density.SpectralDensity.atom_mass",
    "density.SpectralDensity.mass",
    "density.SpectralDensity.mean",
    "density.SpectralDensity.second_moment",
    "density.SpectralDensity.variance",
    "density.SpectralDensity.support",
    "density.SpectralDensity.interpolate",
})

# inclusive time of these spans is reported as "<span>.s"
TIMED_SPANS = (
    "fileio.read_panel_csv",
    "fileio.write_panel_csv",
    "fileio.write_matrix_csv",
    "estimators.standardize",
    "estimators.pearson",
    "estimators.eig",
    "estimators.student_ml",
    "cleaning.apply_scheme",
    "portfolio.backtest",
    "spectra.dressed_spectrum",
    "spectra.elliptic_student_density",
    "kernels.dressed_resolvent_grid",
    "kernels.ewma_resolvent_grid",
    "kernels.track_top",
    "transforms.free_add",
    "transforms.free_multiply",
    "transforms.spectrum_edges",
    "dynamics.empirical_variogram",
)

TRACK_SIZES = (2, 100, 500)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(key):
    return lambda a, k, r: {key: os.path.getsize(_arg(a, k, 0, "path"))}


# Work units of a call, computed from its arguments and result: file sizes,
# grid points, tracker steps, backtest windows.
UNITS = {
    "fileio.read_panel_csv": _file_size("bytes_read"),
    "fileio.read_matrix_csv": _file_size("bytes_read"),
    "fileio.write_panel_csv": _file_size("bytes_written"),
    "fileio.write_matrix_csv": _file_size("bytes_written"),
    "kernels.dressed_resolvent_grid": lambda a, k, r: {"points": len(r)},
    "kernels.ewma_resolvent_grid": lambda a, k, r: {"points": len(r)},
    "kernels.track_top": lambda a, k, r: dict(zip(
        ("steps", "n"), _arg(a, k, 0, "returns").shape)),
    "portfolio.backtest": lambda a, k, r: {"windows": len(r[0])},
}


class Tracer:
    """Spans and call counts recorded in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, units]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        units = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if units is not None:
                rec[4] = units(args, kwargs, result)
            return result
        return traced

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"spans": [[n, s - t0, e - t0, p, u]
                                 for n, s, e, p, u in self.spans],
                       "counts": dict(self.counts)}, fh)


def _public_methods(cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            yield attr, raw.__func__, type(raw)
        elif inspect.isfunction(raw):
            yield attr, raw, None


def instrument(tracer):
    """Wrap every layer's public surface; return the patches made."""
    patches = []  # (owner, attribute, original)
    wrapped = {}  # id(original function) -> (original, wrapper)

    def patch(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__.startswith(modname):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif (inspect.isclass(obj) and obj.__module__ == modname
                  and not issubclass(obj, BaseException)):
                for meth, fn, kind in _public_methods(obj):
                    w = tracer.wrap(f"{layer}.{obj.__name__}.{meth}", fn)
                    patch(obj, meth, kind(w) if kind else w)

    # the eigendecomposition runs on the first access of eigenvalues or
    # eigenvectors and is cached on the instance afterwards
    cm = importlib.import_module("rmtkit.estimators").CorrelationMatrix
    eig = functools.cached_property(
        tracer.wrap("estimators.eig", vars(cm)["_eig"].func))
    eig.__set_name__(cm, "_eig")
    patch(cm, "_eig", eig)

    for modname, mod in list(sys.modules.items()):
        if modname != "rmtkit" and not modname.startswith("rmtkit."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                patch(mod, attr, hit[1])
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    self_s = Counter()
    calls = Counter()
    inclusive = Counter()
    units = Counter()
    per_size = {n: [0.0, 0] for n in TRACK_SIZES}
    for i, (name, start, end, parent, u) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - child[i]
        calls[layer] += 1
        # a span nested in a span of the same name is already counted
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
            for key, value in (u or {}).items():
                units[f"{name}.{key}"] += value
        if name == "kernels.track_top" and u and u["n"] in per_size:
            per_size[u["n"]][0] += end - start
            per_size[u["n"]][1] += u["steps"]
    for name, n in tracer.counts.items():
        calls[name.split(".", 1)[0]] += n

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
    for name in TIMED_SPANS:
        out[f"{name}.s"] = (inclusive[name], "s")
    read_s = (inclusive["fileio.read_panel_csv"]
              + inclusive["fileio.read_matrix_csv"])
    write_s = (inclusive["fileio.write_panel_csv"]
               + inclusive["fileio.write_matrix_csv"])
    read_b = (units["fileio.read_panel_csv.bytes_read"]
              + units["fileio.read_matrix_csv.bytes_read"])
    write_b = (units["fileio.write_panel_csv.bytes_written"]
               + units["fileio.write_matrix_csv.bytes_written"])
    out["fileio.read_mb_per_s"] = (ratio(read_b, read_s, 1e-6), "MB/s")
    out["fileio.write_mb_per_s"] = (ratio(write_b, write_s, 1e-6), "MB/s")
    out["kernels.dressed_resolvent_grid.us_per_point"] = (ratio(
        inclusive["kernels.dressed_resolvent_grid"],
        units["kernels.dressed_resolvent_grid.points"], 1e6), "us")
    for n, (sec, steps) in per_size.items():
        out[f"kernels.track_top.n{n}.us_per_step"] = (
            ratio(sec, steps, 1e6), "us")
    out["portfolio.windows"] = (units["portfolio.backtest.windows"], "count")
    out["transforms.blue.calls"] = (tracer.counts["transforms.blue"], "count")
    out["transforms.resolvent.calls"] = (
        tracer.counts["transforms.resolvent"], "count")
    return out
