"""Layer tracing for the benchmark, installed from outside the package.

``install`` replaces each public function of every layer module (and the
few methods named below) with a wrapper that records a span: job id,
layer, function, start, end and parent span.  Every module attribute that
referred to the original is repointed, so calls between modules are traced
too; nothing under ``src/`` changes.  A few wrappers also read counters at
the boundary (Krylov dimension, sector steps, vertex size).

Spans are timed on the process CPU clock, like the untraced jobs, and stay
in memory.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "fock", "sylvester", "fswt", "kernels", "dynamics",
          "kspace", "gamma")
PACKAGE = "floquet_forge"


class Tracer:
    """Nested spans of one thread, grouped by job id, plus boundary counters."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.job = None
        # span: [job, layer, name, start, end, parent]
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.job, layer, name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][4] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for job, layer, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def summary(self):
        """Per-layer self time, per-function inclusive time and span count.

        A function's inclusive time counts only its outermost spans, so
        recursion is not counted twice.
        """
        layer_self = defaultdict(float)
        func_self = defaultdict(float)
        func_incl = defaultdict(float)
        calls = defaultdict(int)
        for i, st in enumerate(self.self_times()):
            job, layer, name, start, end, parent = self.spans[i]
            layer_self[layer] += st
            func_self[name] += st
            calls[name] += 1
            p = parent
            while p is not None and self.spans[p][2] != name:
                p = self.spans[p][5]
            if p is None:
                func_incl[name] += end - start
        return layer_self, func_self, func_incl, calls


def _spanned(tracer, fn, name, layer, before=None, after=None):
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx)
            if after:
                after(args, kwargs, state, None, False)
            raise
        tracer.close(idx)
        if after:
            after(args, kwargs, state, result, True)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _counted(fn, after):
    """Counter-only wrapper (no span): its time stays with the caller."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, None, result, True)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer):
    c = tracer.counts

    def lanczos_before(args, kwargs):
        return getattr(args[0], "matvecs", None)

    def lanczos_after(args, kwargs, mv0, result, ok):
        c["kernels.lanczos_attempts"] += 1
        c["kernels.lanczos_ok"] += ok
        if mv0 is not None:
            c["kernels.matvecs"] += args[0].matvecs - mv0

    def exact_after(args, kwargs, _, result, ok):
        if ok:
            c["dynamics.exact_steps"] += result.meta["steps"]

    def static_after(args, kwargs, _, result, ok):
        c["dynamics.static_calls"] += 1
        c["dynamics.static_dim_sum"] += args[0].dim

    def to_operator_after(args, kwargs, _, result, ok):
        c["fock.to_operator_calls"] += 1
        if ok:
            c["fock.nnz_assembled"] += result.nnz

    def gamma_matrix_after(args, kwargs, _, result, ok):
        c["gamma.vertex_builds"] += 1
        if ok:
            c["gamma.vertex_dim_sum"] += result.dim

    def inverse_after(args, kwargs, _, result, ok):
        n = args[0].shape[0]
        c["gamma.solve_flops_computed"] += 2.0 * n ** 3

    def finish_after(args, kwargs, _, result, ok):
        em = args[0]
        for name in list(em.files) + ["manifest.txt"]:
            c["cli.bytes_written"] += (em.outdir / name).stat().st_size

    spanned = {
        ("kernels", "lanczos_expm_multiply"): (lanczos_before, lanczos_after),
        ("dynamics", "evolve_exact"): (None, exact_after),
        ("dynamics", "evolve_static"): (None, static_after),
        ("fock", "TermSum.to_operator"): (None, to_operator_after),
        ("gamma", "gamma_matrix"): (None, gamma_matrix_after),
    }
    counted = {
        ("gamma", "_checked_inverse"): inverse_after,
        ("cli", "Emitter.finish"): finish_after,
    }
    return spanned, counted


# Methods traced besides each module's public functions.
EXTRA_SPANS = {"fock": ("TermSum.to_operator",), "kspace": ("BandGrid.square",)}


def _targets(mod, layer):
    names = [n for n in getattr(mod, "__all__", ())
             if inspect.isfunction(getattr(mod, n, None))
             and getattr(mod, n).__module__ == mod.__name__]
    return names + list(EXTRA_SPANS.get(layer, ()))


def _resolve(mod, dotted):
    owner, _, attr = dotted.rpartition(".")
    obj = getattr(mod, owner) if owner else mod
    return obj, attr


def install(tracer):
    """Wrap every layer's public functions; returns the number wrapped."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
               for layer in LAYERS}
    spanned_hooks, counted_hooks = _hooks(tracer)
    replaced = {}
    for layer, mod in modules.items():
        for dotted in _targets(mod, layer):
            owner, attr = _resolve(mod, dotted)
            raw = inspect.getattr_static(owner, attr)
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            before, after = spanned_hooks.get((layer, dotted), (None, None))
            wrapped = _spanned(tracer, fn, f"{layer}.{dotted}", layer,
                               before, after)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            replaced[id(fn)] = wrapped
        for (hook_layer, dotted), after in counted_hooks.items():
            if hook_layer != layer:
                continue
            owner, attr = _resolve(mod, dotted)
            fn = inspect.getattr_static(owner, attr)
            wrapped = _counted(fn, after)
            setattr(owner, attr, wrapped)
            replaced[id(fn)] = wrapped
    # repoint names that other modules imported with ``from .x import f``
    for name in [PACKAGE] + [f"{PACKAGE}.{layer}" for layer in LAYERS]:
        mod = importlib.import_module(name)
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and id(val) in replaced \
                    and replaced[id(val)] is not val:
                setattr(mod, attr, replaced[id(val)])
    return len(replaced)
