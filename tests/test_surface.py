"""The package surface: every exported name resolves, and the test oracles
and test-only options live outside the package."""

import dataclasses
import inspect

import pytest

import amfrk
from amfrk import harness, integrator, splitops, stability, tableau

# dense and closed-form oracles and test-only schemes, kept in tests/helpers.py
TEST_ONLY = (
    "SizeGuardError",
    "_DENSE_LIMIT",
    "_dense_band",
    "apply_pi",
    "dense_direction_matrix",
    "dense_operator_matrix",
    "direction_eigenvalues",
    "extended_scheme",
    "irk_reference_step",
    "residual",
    "sampled_sup_ratio",
    "splitting_sup_bound",
)


def test_every_exported_name_resolves_once():
    assert len(amfrk.__all__) == len(set(amfrk.__all__))
    missing = [name for name in amfrk.__all__ if not hasattr(amfrk, name)]
    assert missing == []


@pytest.mark.parametrize(
    "module", [amfrk, splitops, integrator, harness, stability, tableau],
    ids=lambda m: m.__name__,
)
def test_test_oracles_are_not_in_the_package(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []


def test_module_level_kernels_are_not_exported():
    # reached as integrator.amf_step and splitops.apply_direction / .solve_direction_factor
    names = ("amf_step", "apply_direction", "solve_direction_factor")
    assert [name for name in names if name in amfrk.__all__] == []
    assert callable(integrator.amf_step)
    assert callable(splitops.apply_direction) and callable(splitops.solve_direction_factor)


def test_no_test_only_options():
    assert "n_sweeps" not in inspect.signature(integrator.amf_step).parameters
    assert "taus" not in {f.name for f in dataclasses.fields(amfrk.StudyConfig)}
    assert "iterations_applied" not in {
        f.name for f in dataclasses.fields(amfrk.StepRecord)
    }


def test_problem_holds_only_the_fields_its_callers_read():
    # epsilon is on the operator (each stencil's sub * h**2); beta is in the vectors
    fields = dataclasses.fields(amfrk.SemidiscreteProblem)
    assert tuple(f.name for f in fields) == ("op", "forcing", "exact", "boundary")


def test_wedge_scan_takes_only_the_options_its_callers_set():
    # the cap, the random draw count and the seed are module constants
    params = inspect.signature(amfrk.wedge_stability_scan).parameters
    assert list(params) == ["scheme", "tab", "d", "theta", "radii", "keep_samples"]
    assert (params["radii"].default, params["keep_samples"].default) == (None, False)
    assert "sampled_sup_ratio" not in amfrk.__all__
