"""Per-layer timing for a traced benchmark run.

The tracer wraps, from outside the package, the public functions of each
dbardisk module (plus the few private helpers and numpy solves that the
per-layer metrics name) in span recorders. Each span keeps its start time
and the time its child spans took, so a layer's self time is its span's
duration minus the part covered by spans opened inside it. Spans are
aggregated in memory per name; nothing is written while the run measures.

A wrapper replaces every reference to the original function in every
dbardisk module namespace (``harness`` imports most functions by name), or
the attribute on the class for methods. Domains bind ``PolynomialRho``
methods when they are built, so install the tracer before building any.
``uninstall`` restores every replaced reference.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MIB = float(1 << 20)

# span name -> per-layer metric reporting its self time. Metric names must
# start with a letter or digit, so the _kernels module reports as kernels.*
TIMED = {
    "diskmap.grid_build": "diskmap.grid_build_s",
    "diskmap.derivatives_analytic": "diskmap.derivatives_analytic_s",
    "diskmap.derivatives_spectral": "diskmap.derivatives_spectral_s",
    "diskmap.energies": "diskmap.energies_s",
    "_kernels.polar_to_cartesian": "kernels.polar_to_cartesian_s",
    "_kernels.energy_densities": "kernels.energy_densities_s",
    "_kernels.gram_interior": "kernels.gram_interior_s",
    "geometry.rho_eval": "geometry.rho_eval_s",
    "geometry.classify_pseudoconvexity": "geometry.classify_pseudoconvexity_s",
    "criticality.harmonic_residual": "criticality.harmonic_residual_s",
    "criticality.boundary_condition": "criticality.boundary_condition_s",
    "secondvar.boundary_state": "secondvar.boundary_state_s",
    "secondvar.admissible_basis": "secondvar.admissible_basis_s",
    "secondvar.field_gradients": "secondvar.field_gradients_s",
    "secondvar.eigvalsh": "secondvar.eigvalsh_s",
    "secondvar.assemble_gram": "secondvar.assemble_gram_s",
    "secondvar.index_form": "secondvar.index_form_s",
    "secondvar.fd_second_variation": "secondvar.fd_second_variation_s",
    "secondvar.projection": "secondvar.projection_s",
    "holsec.kernel_assembly": "holsec.kernel_assembly_s",
    "holsec.svd": "holsec.svd_s",
    "holsec.build_U": "holsec.build_U_s",
    "holsec.certify_index": "holsec.certify_index_s",
    "harness.run": "harness.run_s",
    "harness.serialize": "harness.serialize_s",
}

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "diskmap.grid_build_s": "s",
    "diskmap.derivatives_analytic_s": "s",
    "diskmap.derivatives_spectral_s": "s",
    "diskmap.derivatives_calls": "count",
    "diskmap.energies_s": "s",
    "diskmap.energies_calls": "count",
    "kernels.polar_to_cartesian_s": "s",
    "kernels.energy_densities_s": "s",
    "kernels.gram_interior_s": "s",
    "geometry.rho_calls": "count",
    "geometry.grad_calls": "count",
    "geometry.hess_calls": "count",
    "geometry.rho_eval_s": "s",
    "geometry.classify_pseudoconvexity_s": "s",
    "criticality.harmonic_residual_s": "s",
    "criticality.boundary_condition_s": "s",
    "secondvar.boundary_state_s": "s",
    "secondvar.admissible_basis_s": "s",
    "secondvar.field_gradients_s": "s",
    "secondvar.field_gradients_calls": "count",
    "secondvar.gram_gradient_mb": "MB",
    "secondvar.eigvalsh_s": "s",
    "secondvar.assemble_gram_s": "s",
    "secondvar.index_form_s": "s",
    "secondvar.fd_second_variation_s": "s",
    "secondvar.projection_s": "s",
    "holsec.kernel_assembly_s": "s",
    "holsec.svd_s": "s",
    "holsec.svd_matrix_mb": "MB",
    "holsec.build_U_s": "s",
    "holsec.certify_index_s": "s",
    "harness.run_s": "s",
    "harness.serialize_s": "s",
    "harness.report_kb": "KB",
}

# metrics that are the largest value seen, not a total per pass
PEAKS = ("secondvar.gram_gradient_mb", "holsec.svd_matrix_mb")


class Tracer:
    """Span recorder over the dbardisk modules; see the module docstring."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self._stack = []          # open spans: [name, seconds of child spans]
        self._undo = []

    def reset(self):
        """Drop what was recorded so far (the workload's set-up)."""
        self.self_s.clear()
        self.counts.clear()
        self.peaks.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, count=None, parent=None, before=None, after=None):
        """Wrap fn in a span. name may be a function of the call arguments.

        count names a counter bumped per call. parent, when set, records the
        span only under an open span of that name; elsewhere the call counts
        as self time of whatever span is open. before/after observe the
        arguments and the result.
        """
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parent is not None and not (stack and stack[-1][0] == parent):
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if count is not None:
                counts[count] += 1
            if before is not None:
                before(args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[label] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, val))

    def _patch_function(self, modules, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._replace_everywhere(original, self._wrap(original, name, **kw), modules)

    def _patch_attr(self, owner, attr, name, **kw):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(original, name, **kw))
        self._undo.append((owner, attr, original))

    # -- install / uninstall ------------------------------------------------

    def install(self):
        import numpy as np

        from dbardisk import (_kernels, criticality, diskmap, geometry, harness,
                              holsec, secondvar)

        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "dbardisk" or k.startswith("dbardisk."))]
        fn = functools.partial(self._patch_function, mods)

        self._patch_attr(diskmap.DiskGrid, "__init__", "diskmap.grid_build")
        fn(diskmap, "derivatives",
           lambda a, k: ("diskmap.derivatives_analytic" if a[0].analytic is not None
                         else "diskmap.derivatives_spectral"),
           count="diskmap.derivatives_calls")
        fn(diskmap, "energies", "diskmap.energies", count="diskmap.energies_calls")
        for attr in ("polar_to_cartesian", "energy_densities", "gram_interior"):
            fn(_kernels, attr, f"_kernels.{attr}")

        rho = geometry.PolynomialRho
        self._patch_attr(rho, "__call__", "geometry.rho_eval", count="geometry.rho_calls")
        self._patch_attr(rho, "gradient", "geometry.rho_eval", count="geometry.grad_calls")
        self._patch_attr(rho, "hessian", "geometry.rho_eval", count="geometry.hess_calls")
        fn(geometry, "classify_pseudoconvexity", "geometry.classify_pseudoconvexity")

        fn(criticality, "harmonic_residual", "criticality.harmonic_residual")
        fn(criticality, "boundary_condition", "criticality.boundary_condition")

        def gram_size(args, kwargs):
            f = args[0] if args else kwargs["f"]
            basis = args[2] if len(args) > 2 else kwargs["basis"]
            g = f.grid
            mb = 2 * len(basis) * g.n_r * g.n_theta * 2 * f.n * 8 / MIB
            self.peaks["secondvar.gram_gradient_mb"] = max(
                self.peaks["secondvar.gram_gradient_mb"], mb)

        fn(secondvar, "boundary_state", "secondvar.boundary_state")
        fn(secondvar, "admissible_basis", "secondvar.admissible_basis")
        self._patch_attr(secondvar.VariationField, "gradients", "secondvar.field_gradients",
                         count="secondvar.field_gradients_calls")
        fn(secondvar, "assemble_gram", "secondvar.assemble_gram", before=gram_size)
        fn(secondvar, "index_form_real", "secondvar.index_form")
        fn(secondvar, "index_form_complex", "secondvar.index_form")
        fn(secondvar, "fd_second_variation", "secondvar.fd_second_variation")
        fn(secondvar, "_project_to_hypersurface", "secondvar.projection")

        def svd_size(args, kwargs):
            mb = args[0].nbytes / MIB
            self.peaks["holsec.svd_matrix_mb"] = max(self.peaks["holsec.svd_matrix_mb"], mb)

        fn(holsec, "dbar_kernel_dimension", "holsec.kernel_assembly")
        fn(holsec, "build_U", "holsec.build_U")
        fn(holsec, "certify_index", "holsec.certify_index")

        def report_size(text):
            self.counts["harness.report_bytes"] += len(text.encode("utf-8"))

        fn(harness, "run", "harness.run")
        fn(harness, "to_json_text", "harness.serialize", after=report_size)
        fn(harness, "emit", "harness.serialize")

        self._patch_attr(np.linalg, "svd", "holsec.svd",
                         parent="holsec.kernel_assembly", before=svd_size)
        self._patch_attr(np.linalg, "eigvalsh", "secondvar.eigvalsh",
                         parent="secondvar.assemble_gram")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics: times and counts per pass, sizes at their peak."""
        per_pass = {metric: self.self_s.get(span, 0.0) / passes
                    for span, metric in TIMED.items()}
        for key in ("diskmap.derivatives_calls", "diskmap.energies_calls",
                    "geometry.rho_calls", "geometry.grad_calls", "geometry.hess_calls",
                    "secondvar.field_gradients_calls"):
            per_pass[key] = self.counts.get(key, 0) / passes
        per_pass["harness.report_kb"] = self.counts.get("harness.report_bytes", 0) / 1024 / passes
        for key in PEAKS:
            per_pass[key] = self.peaks.get(key, 0.0)
        return {k: {"value": per_pass[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
