"""In-memory span recorder for liftphase, installed from outside the package.

The pipeline modules import each other's public names directly
(``from .kernels import integrate_complex``), so a name is wrapped in the
namespace of the module that *calls* it: patching ``kernels`` alone would
miss every call.  Each span is ``[name, start, end, parent, value]``:
``parent`` is the index of the enclosing span in the same process (-1 for a
root) and ``value`` is a health figure read from the wrapped call's return
value (quadrature error estimate, matrix bytes, recovery diagnostics).
Spans stay in memory and are written once, when the process ends.

A span name is ``<module>.<function>`` where ``<module>`` is the liftphase
module that *defines* the function, which is the layer its self time is
charged to.  Two spans of one name never nest, so inclusive time by name is
a plain sum.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

#: Layers whose self time is reported: the liftphase modules, the benchmark's
#: own operation loop (``bench``) and the package import (``startup``).
LAYERS = ("kernels", "signals", "forward", "lifting", "recovery", "synthesis",
          "cli", "bench", "startup")


def _quad_error(result):
    return float(result[1])


def _nbytes(result):
    return int(result.nbytes)


def _factor_bytes(result):
    return int(sum(part.nbytes for part in result))


def _n_unknowns(result):
    return int(result.n_unknowns)


def _diagnostics(result):
    diag = result.diagnostics
    return {"rank": diag.rank, "eigen_gap": diag.eigen_gap,
            "refine_residual": diag.refine_residual,
            "clamped_fraction": diag.clamped_fraction}


def _targets():
    """(owner, attribute, span name, value reader, is_property) for each
    wrapped public name."""
    from liftphase import (cli, forward, kernels, lifting, recovery, signals,
                           synthesis)
    return [
        (forward, "measure", "forward.measure", None, False),
        (forward, "spectrogram_quadrature", "forward.spectrogram_quadrature",
         None, False),
        (forward, "spectrogram_series", "forward.spectrogram_series", None, False),
        (forward, "integrate_complex", "kernels.integrate_complex", _quad_error,
         False),
        (signals, "integrate_complex", "kernels.integrate_complex", _quad_error,
         False),
        (signals.Signal, "fourier", "signals.fourier", None, False),
        (signals.Window, "fourier", "signals.fourier", None, False),
        (signals.Window, "__init__", "signals.window_init", None, False),
        (recovery, "recover", "recovery.recover", _diagnostics, False),
        (recovery, "cached_system", "recovery.cached_system", _n_unknowns, False),
        (recovery, "assemble_system", "lifting.assemble_system", None, False),
        (recovery, "solve_band", "recovery.solve_band", None, False),
        (recovery, "min_norm_least_squares", "kernels.min_norm_least_squares",
         None, False),
        (recovery, "angular_synchronize", "recovery.angular_synchronize", None,
         False),
        (recovery, "leading_eigenvector", "kernels.leading_eigenvector", None,
         False),
        (kernels.BandedMatrix, "matvec", "kernels.matvec", None, False),
        (lifting.LiftedSystem, "matrix", "lifting.matrix", _nbytes, True),
        (lifting.LiftedSystem, "factorization", "lifting.factorization",
         _factor_bytes, True),
        (synthesis, "synthesize", "synthesis.synthesize", None, False),
        (synthesis, "aligned_relative_error", "synthesis.aligned_relative_error",
         None, False),
        (synthesis, "write_reconstruction_csv",
         "synthesis.write_reconstruction_csv", None, False),
        (cli, "write_json", "cli.write_json", None, False),
    ]


class Tracer:
    """Records spans around liftphase's public calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._originals: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def _wrap(self, fn, name, value_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                span[4] = value_of(result)
            return result
        return traced

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name, value_of, is_property in _targets():
            original = owner.__dict__[attr] if is_property else getattr(owner, attr)
            if is_property:
                patched = property(self._wrap(original.fget, name, value_of))
            else:
                patched = self._wrap(original, name, value_of)
            setattr(owner, attr, patched)
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextlib.contextmanager
    def span(self, name):
        """Span around the benchmark's own code (not a liftphase call)."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def subtree(spans, root_name):
    """Spans under (and including) every root-level span named ``root_name``,
    re-indexed so parents stay valid; the parent of a kept root is -1."""
    keep = {}
    out = []
    for i, (name, start, end, parent, value) in enumerate(spans):
        if parent in keep:
            new_parent = keep[parent]
        elif parent == -1 and name == root_name:
            new_parent = -1
        else:
            continue
        keep[i] = len(out)
        out.append([name, start, end, new_parent, value])
    return out


class Totals:
    """Inclusive time, self time, call counts and values by span name over
    one or more processes' spans."""

    def __init__(self):
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.values: dict[str, list] = {}
        self.fourier_misses = 0
        self.cache_hits = 0
        self.power_iterations = 0
        self.window_inits: list[float] = []
        self.span_count = 0

    def add(self, spans) -> None:
        child_time = [0.0] * len(spans)
        child_names = [None] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if child_names[parent] is None:
                    child_names[parent] = set()
                child_names[parent].add(name)
        for i, (name, start, end, parent, value) in enumerate(spans):
            duration = end - start
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - child_time[i])
            self.calls[name] = self.calls.get(name, 0) + 1
            if value is not None:
                self.values.setdefault(name, []).append(value)
            kids = child_names[i] or ()
            if name == "signals.fourier" and "kernels.integrate_complex" in kids:
                self.fourier_misses += 1
            elif name == "recovery.cached_system" and "lifting.assemble_system" not in kids:
                self.cache_hits += 1
            elif name == "signals.window_init":
                self.window_inits.append(duration)
            elif (name == "kernels.matvec" and parent >= 0
                  and spans[parent][0] == "kernels.leading_eigenvector"):
                self.power_iterations += 1
        self.span_count += len(spans)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == layer)


def per_layer_metrics(totals: Totals, passes: int, setup: Totals | None = None,
                      artifact_bytes: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass of the workload's operations.

    Times and counts are totals divided by ``passes``; maxima, minima and
    sizes are taken over all operations.  ``setup`` holds the spans of the
    set-up phase of an in-process workload (None for CLI workloads).
    ``recovery.refine_self_s`` is the self time of ``recover`` (its private
    refinement loop is most of it), the ``*_bytes`` sizes are computed from
    array shapes, ``signals.window_init_s`` is the median window
    construction per process, and ``<layer>.self_s`` plus
    ``trace.unattributed_s`` add up to ``trace.pass_wall_s``.
    """
    def per_pass(name):
        return totals.inclusive.get(name, 0.0) / passes

    def count(name):
        return totals.calls.get(name, 0) / passes

    def values(name):
        return totals.values.get(name, [])

    diags = values("recovery.recover")

    def diag_field(field, pick):
        found = [d[field] for d in diags if d[field] is not None]
        return float(pick(found)) if found else 0.0

    window_inits = totals.window_inits + (setup.window_inits if setup else [])
    cached_calls = totals.calls.get("recovery.cached_system", 0)
    metrics = {
        "forward.measure_s": (per_pass("forward.measure"), "s"),
        "forward.measure_self_s": (
            totals.self_time.get("forward.measure", 0.0) / passes, "s"),
        "forward.measurements": (
            count("forward.spectrogram_quadrature")
            + count("forward.spectrogram_series"), "count"),
        "signals.fourier_s": (per_pass("signals.fourier"), "s"),
        "signals.fourier_calls": (count("signals.fourier"), "count"),
        "signals.fourier_misses": (totals.fourier_misses / passes, "count"),
        "signals.window_init_s": (
            statistics.median(window_inits) if window_inits else 0.0, "s"),
        "kernels.integrate_complex_s": (per_pass("kernels.integrate_complex"), "s"),
        "kernels.integrate_complex_calls": (count("kernels.integrate_complex"),
                                            "count"),
        "kernels.quad_err_max": (
            max(values("kernels.integrate_complex"), default=0.0), "1"),
        "lifting.assemble_system_s": (per_pass("lifting.assemble_system"), "s"),
        "lifting.matrix_s": (per_pass("lifting.matrix"), "s"),
        "lifting.factorization_s": (per_pass("lifting.factorization"), "s"),
        "lifting.matrix_bytes": (
            max(values("lifting.matrix"), default=0), "B-computed"),
        "lifting.factorization_bytes": (
            max(values("lifting.factorization"), default=0), "B-computed"),
        "lifting.n_unknowns": (
            max(values("recovery.cached_system"), default=0), "count"),
        "recovery.recover_s": (per_pass("recovery.recover"), "s"),
        "recovery.refine_self_s": (
            totals.self_time.get("recovery.recover", 0.0) / passes, "s"),
        "recovery.solve_band_s": (per_pass("recovery.solve_band"), "s"),
        "recovery.angular_synchronize_s": (
            per_pass("recovery.angular_synchronize"), "s"),
        "recovery.cached_system_s": (per_pass("recovery.cached_system"), "s"),
        "recovery.cache_hit_ratio": (
            totals.cache_hits / cached_calls if cached_calls else 0.0, "ratio"),
        "recovery.rank": (diag_field("rank", min), "count"),
        "recovery.eigen_gap_min": (diag_field("eigen_gap", min), "1"),
        "recovery.refine_residual_max": (diag_field("refine_residual", max), "1"),
        "recovery.clamped_fraction_max": (diag_field("clamped_fraction", max), "1"),
        "kernels.leading_eigenvector_s": (per_pass("kernels.leading_eigenvector"),
                                          "s"),
        "kernels.leading_eigenvector_calls": (
            count("kernels.leading_eigenvector"), "count"),
        "kernels.power_iterations": (totals.power_iterations / passes, "count"),
        "kernels.min_norm_least_squares_s": (
            per_pass("kernels.min_norm_least_squares"), "s"),
        "synthesis.synthesize_s": (per_pass("synthesis.synthesize"), "s"),
        "synthesis.aligned_relative_error_s": (
            per_pass("synthesis.aligned_relative_error"), "s"),
        "synthesis.write_reconstruction_csv_s": (
            per_pass("synthesis.write_reconstruction_csv"), "s"),
        "cli.main_s": (per_pass("cli.main"), "s"),
        "cli.write_json_s": (per_pass("cli.write_json"), "s"),
        "cli.artifact_bytes": (artifact_bytes / passes, "B"),
        "setup.factorization_s": (
            setup.inclusive.get("lifting.factorization", 0.0) if setup else 0.0,
            "s"),
        "trace.spans": (totals.span_count / passes, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals.layer_self(layer) / passes, "s")
    return metrics
