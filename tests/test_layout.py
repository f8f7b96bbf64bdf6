"""Module boundaries: the solve path does not depend on verification code."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import scare_radi
from scare_radi import problems, shifts

PACKAGE = Path(scare_radi.__file__).parent


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[-1])
            else:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["engine", "kernels", "shifts", "problems"])
def test_solve_path_imports_no_verification_module(module):
    assert not _imported_modules(PACKAGE / f"{module}.py") & {"oracles", "testing"}


@pytest.mark.parametrize(
    "name",
    [
        "standardize",
        "feedback_original",
        "incorporation_coefficients",
        "incorporation_residual_dense",
        "DenseSolution",
    ],
)
def test_dense_references_live_in_oracles(name):
    assert not hasattr(problems, name)
    assert hasattr(scare_radi.oracles, name)


@pytest.mark.parametrize("module", ["engine", "shifts", "problems"])
def test_factorization_route_is_decided_in_kernels(module):
    # The shifted factorization's route, the truncation Gram's dsyrk and every
    # other direct BLAS or LAPACK call live in kernels alone.
    assert not _imported_modules(PACKAGE / f"{module}.py") & {"lapack", "blas"}


@pytest.mark.parametrize("name", ["window_s", "s_history"])
def test_the_shift_window_is_known_to_shifts_alone(name):
    # The shift window is the tail of Xi's block list, and only shifts reads
    # it: the engine neither sizes nor keeps a window of its own.
    assert name not in (PACKAGE / "engine.py").read_text()


@pytest.mark.parametrize("module", ["engine", "shifts"])
def test_the_mass_matrix_is_reached_through_kernels(module):
    # x E and E^-1 U are built in kernels, E^-1 U on the shifted solve's
    # route: the step and the shift layer use ops.e_times and ops.e_solve,
    # never E's sparse form or factors of their own.
    text = (PACKAGE / f"{module}.py").read_text()
    assert "e_lu" not in text and "splu" not in text
    assert not re.search(r"\bops\.e\b", text)


@pytest.mark.parametrize("name", ["dpttrf", "dpttrs", "splu"])
def test_each_route_factors_and_solves_at_one_site(name):
    # Each route has one factor-and-solve, which makes the definiteness test
    # of -A, E's factorization and every shifted one.
    calls = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "kernels.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]
    assert len(calls) == 1


def test_the_mass_matrix_has_no_class_of_its_own():
    # E's maps x -> x E and u -> E^-1 u are fields of the operator forms.
    assert not hasattr(scare_radi.kernels, "MassMatrix")
    assert {"e_times", "e_solve"} <= {
        f.name for f in dataclasses.fields(scare_radi.kernels.OperatorForms)
    }


def test_operator_forms_are_built_in_kernels():
    # The route, its operands and E's maps are decided in one place, so the
    # problem containers reach kernels through its public names only.
    assert scare_radi.kernels.OperatorForms.__module__ == "scare_radi.kernels"
    private = [
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "problems.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "kernels"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_applied_shifts_are_recorded_on_the_solve_state_alone():
    # The shift cache holds one projection's pending shifts and where they
    # came from; the solve's applied shifts are the state's, and the
    # strategies read the shift floor from the state's operators.
    fields = [f.name for f in dataclasses.fields(shifts.ShiftCache)]
    assert fields == ["pending", "source_iteration", "basis_dim"]
    for strategy in (shifts.hamiltonian_shifts, shifts.projection_shifts):
        assert "gamma_floor" not in inspect.signature(strategy).parameters
