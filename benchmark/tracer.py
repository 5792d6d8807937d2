"""Per-layer tracing of `burau` from outside the package.

`Tracer.install()` replaces every public module-level function of each
`burau` module by a timing wrapper, in every `burau` module namespace that
holds a reference to it (so `from .foxburau import burau_matrix` in
`burau.spectral` is wrapped too).  No program file is edited.  Class methods
are left alone, so `LaurentPoly` arithmetic counts towards the layer that
calls it.

Spans are recorded per operation with parent links and folded, when the
operation ends, into per-layer self times, inclusive times and call counts.
A layer's self time is the time in its functions minus the time in nested
traced calls of other layers.  Counters read public result fields
(`SweepResult`, `GapReport`, `FreeAutomorphism`).  A function that a later
version removes or renames is simply not wrapped and reports zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("braid", "freegroup", "laurent", "foxburau", "spectral", "cli")

# Private helpers hooked only to count calls: one call per refined maximum.
COUNTED_PRIVATE = {"spectral": ("_golden_section_max",)}

# Inclusive-time groups, by function name.
TIMED = {
    "spectral.root_s": ("spectral.roots",),
    "spectral.specialize_s": ("spectral.specialize", "spectral.specialize_bivariate"),
    "spectral.sweep_s": ("spectral.sweep_unit_circle",),
    "spectral.certificate_s": ("spectral.unit_circle_root_certificate",),
}

# Call counters, by function name.
CALLS = {
    "spectral.root_calls": ("spectral.roots",),
    "spectral.certificate_calls": ("spectral.unit_circle_root_certificate",),
    "spectral.refined_maxima": ("spectral._golden_section_max",),
    "foxburau.burau_builds": ("foxburau.burau_matrix",),
    "laurent.charpoly_calls": ("laurent.charpoly",),
    "laurent.det_calls": ("laurent.bivariate_det",),
}


def _image_letters(auto) -> int:
    return sum(len(img.letters) for img in getattr(auto, "images", ()))


class Tracer:
    """Wraps `burau`'s public functions and accumulates per-layer numbers."""

    def __init__(self) -> None:
        self.totals: dict = {}
        self.calls: dict = {}
        self.inclusive: dict = {}
        self.sweeps: list = []
        self._spans: list = []
        self._stack: list = []
        self._installed: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"burau.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("burau")]
        for layer, mod in modules.items():
            names = [name for name, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not name.startswith("_")]
            names += [name for name in COUNTED_PRIVATE.get(layer, ())
                      if inspect.isfunction(getattr(mod, name, None))]
            for name in names:
                original = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._installed.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    def _wrap(self, qualname: str, layer: str, fn):
        spans = self._spans
        stack = self._stack
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, qualname, layer, start, end)
            observe(qualname, result)
            return result

        return wrapper

    # -- counters from return values ----------------------------------------

    def _observe(self, qualname: str, result) -> None:
        """Counters from result fields; a field a later version drops counts
        as zero."""
        add = self._add
        if qualname == "spectral.sweep_unit_circle":
            add("spectral.grid_points", getattr(result, "grid", 0))
            add("spectral.skipped_points", len(getattr(result, "skipped", ())))
            add("spectral.refine_evals", getattr(result, "refinement_iterations", 0))
            if hasattr(result, "theta_star") and hasattr(result, "radius_star"):
                self.sweeps.append((result.theta_star, result.radius_star))
        elif qualname == "spectral.strict_gap_check":
            add("spectral.skipped_points", len(getattr(result, "skipped", ())))
        elif qualname == "freegroup.artin_action":
            add("freegroup.image_letters", _image_letters(result))
        elif qualname == "freegroup.compose_autos_detailed":
            auto = result[0] if isinstance(result, tuple) else result
            add("freegroup.compose_letters", _image_letters(auto))

    def _add(self, key: str, value) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    # -- per operation -------------------------------------------------------

    def begin_op(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.sweeps = []

    def end_op(self) -> None:
        """Fold the operation's spans into self times, inclusive times and
        call counts, then drop them.  A child's span is recorded after its
        parent's, so a reverse scan sees every child before its parent."""
        spans = self._spans
        child_time = [0.0] * len(spans)
        for k in range(len(spans) - 1, -1, -1):
            parent, name, layer, start, end = spans[k]
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            self._add(f"{layer}.self_s", duration - child_time[k])
            self.calls[name] = self.calls.get(name, 0) + 1
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        spans.clear()

    def layer_metrics(self) -> dict:
        """Totals over every operation so far, keyed by metric name."""
        out = dict(self.totals)
        for key, names in TIMED.items():
            out[key] = sum(self.inclusive.get(n, 0.0) for n in names)
        for key, names in CALLS.items():
            out[key] = sum(self.calls.get(n, 0) for n in names)
        for layer in LAYERS:
            out.setdefault(f"{layer}.self_s", 0.0)
        return out
