"""The benchmark tracer still finds the layers it patches.

``perfbench/tracing.py`` wraps package functions by name. A rename or a
deleted function would leave a per-layer metric reading 0 without any
error, so this runs the first operation of every workload (and, where a
span lies on a later operation, the first operation of that kind) under
the tracer and checks that its operation passes, that the spans it must
reach recorded time, and that uninstalling restores every original.
"""

import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from dbardisk import (  # noqa: E402
    _kernels,
    criticality,
    diskmap,
    geometry,
    harness,
    holsec,
    secondvar,
)

# per workload: the per-layer metrics its first operation must make nonzero
EXPECTED_SPANS = {
    "gram_ladder": ["diskmap.grid_build_s", "secondvar.admissible_basis_s",
                    "secondvar.boundary_state_s",
                    "secondvar.assemble_gram_s", "secondvar.eigvalsh_s",
                    "harness.run_s", "harness.serialize_s", "geometry.rho_eval_s"],
    "fredholm_ladder": ["holsec.kernel_assembly_s", "holsec.svd_s",
                        "holsec.svd_matrix_mb"],
    "certify_sweep": ["criticality.harmonic_residual_s",
                      "criticality.boundary_condition_s", "secondvar.boundary_state_s",
                      "harness.run_s", "geometry.rho_calls"],
    "sampled_oracles": ["holsec.build_U_s", "holsec.certify_index_s",
                        "secondvar.boundary_state_s", "diskmap.derivatives_spectral_s"],
}

# per workload: (operation name prefix, spans) for spans that the first
# operation does not reach: a certificate takes the sections' interior terms
# from their coefficients and evaluates them as one stacked Gram, so it forms
# no field gradient and calls no per-field index form; the fd oracle's
# operation does both
LATER_SPANS = {
    "sampled_oracles": ("fd-vs-index-", ["secondvar.field_gradients_s",
                                         "secondvar.index_form_s"]),
}


def _originals():
    """Every reference the tracer replaces, read without going through it."""
    refs = {name: vars(mod)[attr] for name, mod, attr in (
        ("grid_init", diskmap.DiskGrid, "__init__"),
        ("derivatives", diskmap, "derivatives"),
        ("polar_to_cartesian", _kernels, "polar_to_cartesian"),
        ("rho_call", geometry.PolynomialRho, "__call__"),
        ("rho_gradient", geometry.PolynomialRho, "gradient"),
        ("boundary_condition", criticality, "boundary_condition"),
        ("boundary_state", criticality, "boundary_state"),
        ("gradients", secondvar.VariationField, "gradients"),
        ("assemble_gram", secondvar, "assemble_gram"),
        ("index_form_complex", secondvar, "index_form_complex"),
        ("build_U", holsec, "build_U"),
        ("certify_index", holsec, "certify_index"),
        ("harness_run", harness, "run"),
        ("harness_certify_index", harness, "certify_index"),
    )}
    refs["svd"] = np.linalg.svd
    refs["eigvalsh"] = np.linalg.eigvalsh
    return refs


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_tracer_reaches_every_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = wl.setup()
        ops = wl.operations(ctx, np.random.default_rng(7), str(tmp_path))
        prefix, later = LATER_SPANS.get(name, (None, []))
        runs = [(ops[0], EXPECTED_SPANS[name])]
        if prefix is not None:
            runs.append((next(op for op in ops if op.name.startswith(prefix)), later))
        zero = []
        for op, spans in runs:
            tracer.reset()
            out = op.call()
            assert op.check(out) == [], op.name
            metrics = tracer.metrics(1)
            zero += [(op.name, key) for key in spans if not metrics[key]["value"] > 0]
    finally:
        tracer.uninstall()
    after = _originals()
    assert all(after[key] is before[key] for key in before), [
        key for key in before if after[key] is not before[key]]
    assert not zero, f"spans read 0: {zero}"


def test_tracer_reaches_the_levi_classification():
    # certify classifies from the Levi form of the cached boundary state,
    # so no workload's first operation reaches classify_pseudoconvexity;
    # the levi action does
    original = geometry.classify_pseudoconvexity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = harness.ScenarioConfig(action="levi", domain="ball4", map="f3")
        assert harness.run(config).results["levi"]["classification"] == "strict"
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert geometry.classify_pseudoconvexity is original
    assert metrics["geometry.classify_pseudoconvexity_s"]["value"] > 0


def test_tracer_reaches_the_polar_chain_rule():
    # no workload reads the Cartesian fields of a sampled map (conformality
    # works in the polar frame), so no workload reaches polar_to_cartesian;
    # reading f_x of a sampled map does
    original = _kernels.polar_to_cartesian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        f = diskmap.make_map("f3", diskmap.DiskGrid(32, 64)).rotated(3)
        assert f.derivatives().f_x.shape == f.values.shape
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert _kernels.polar_to_cartesian is original
    assert metrics["kernels.polar_to_cartesian_s"]["value"] > 0
