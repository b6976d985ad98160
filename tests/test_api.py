"""The public API is declared once: the import list of ``gaussdecoup/__init__.py``.

A public function or class that a layer module defines is either exported by
the root or named below as belonging to its module alone, so a new helper
cannot enter (or leave) the API unnoticed.  The CLI front end is reached as
``gaussdecoup.cli`` and is not a layer here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import gaussdecoup
from gaussdecoup import covmodel, decoupling, szego, verify

LAYERS = ("errors", "covmodel", "decoupling", "szego", "brascamp", "verify")

# Public in their module, left out of the root on purpose.
MODULE_ONLY = {
    "covmodel.clausen_cos",
    "covmodel.load_values",
    "covmodel.load_matrix",
}

# Test oracles: they live in tests/oracles.py, not in the package.
ORACLES = {
    "brascamp": (
        "minkowski_check",
        "ostrowski_bound",
        "detB_identity_check",
        "gaussian_extremal_check",
        "random_spd",
    ),
    "covmodel": ("inverse_power_gamma",),
    "szego": ("toeplitz_section",),
    "verify": ("with_rhs", "hit_bound", "sample_gaussian"),
}

# covmodel's private forms and their numerics: decoupling reads a covariance
# through its row sums and shifted log det alone, whatever its form.
FORM_PRIVATES = {
    "_CauchyMatrix", "_ToeplitzMatrix", "_Durbin", "_levinson_durbin", "_cholesky_log_det"
}

# Deleted outright: each caller reads a route the package already had
# (README, "Names removed").
DELETED = {
    "brascamp": ("eb_upper_bound",),
    "covmodel": ("SpectralSymbol.fourier_coefficient", "SpectralSymbol.c_alias_bound"),
    "decoupling": ("theorem1_constant", "stationary_p_bounds"),
    "szego": ("condition_report",),
    "verify": ("_product_moments",),
}


def _defined_public(layer: str) -> dict:
    module = importlib.import_module(f"gaussdecoup.{layer}")
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_decoupling_does_not_dispatch_on_the_form():
    tree = ast.parse(Path(decoupling.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not {alias.name for alias in node.names} & FORM_PRIVATES, ast.unparse(node)
        elif isinstance(node, ast.Attribute):
            assert node.attr != "gamma", f"branch on the stationary form: {ast.unparse(node)}"
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            classes = ast.unparse(node.args[1])
            assert "Matrix" not in classes, f"branch on the form: {ast.unparse(node)}"


def test_the_symbol_owns_its_numbers():
    # covmodel never imports szego, not even inside a function ...
    for node in ast.walk(ast.parse(Path(covmodel.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        else:
            continue
        assert "szego" not in {part for n in names for part in n.split(".")}, ast.unparse(node)
    # ... and szego reads a symbol through its public members alone.
    for node in ast.walk(ast.parse(Path(szego.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("covmodel"):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            assert node.attr.startswith("__") and node.attr.endswith("__"), ast.unparse(node)


def _assert_imports_no_scipy(module):
    # An import inside a function counts too.
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not [n for n in names if n.split(".")[0] == "scipy"], ast.unparse(node)


def test_covmodel_imports_no_scipy():
    # covmodel's zeta values are its own (_zeta), so analyze and szego start
    # and run without scipy.
    _assert_imports_no_scipy(covmodel)


@pytest.mark.parametrize("module", [decoupling, verify], ids=lambda m: m.__name__)
def test_verify_layers_import_no_scipy(module):
    # erf and erfc are decoupling's cephes port and the hit verdicts a binomial
    # tail, so verify starts and runs without scipy.
    _assert_imports_no_scipy(module)


def test_verify_sweep_names_are_exported():
    from gaussdecoup import verify

    assert gaussdecoup.sweep_moments is verify.sweep_moments


@pytest.mark.parametrize("layer", sorted(ORACLES))
def test_oracles_left_the_package(layer):
    module = importlib.import_module(f"gaussdecoup.{layer}")
    for name in ORACLES[layer]:
        assert not hasattr(gaussdecoup, name), name
        assert not hasattr(module, name), f"{layer}.{name}"


def _resolves(obj, dotted: str) -> bool:
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("layer", sorted(DELETED))
def test_deleted_names_are_gone(layer):
    module = importlib.import_module(f"gaussdecoup.{layer}")
    for name in DELETED[layer]:
        assert not _resolves(gaussdecoup, name), name
        assert not _resolves(module, name), f"{layer}.{name}"


@pytest.mark.parametrize("layer", LAYERS)
def test_no_second_declaration(layer):
    assert not hasattr(importlib.import_module(f"gaussdecoup.{layer}"), "__all__")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_is_exported_or_module_only(layer):
    for name, obj in _defined_public(layer).items():
        if f"{layer}.{name}" in MODULE_ONLY:
            assert getattr(gaussdecoup, name, None) is not obj, f"{layer}.{name} is exported"
        else:
            assert getattr(gaussdecoup, name, None) is obj, f"{layer}.{name} is not exported"


def test_module_only_names_exist():
    for dotted in MODULE_ONLY:
        layer, name = dotted.split(".")
        assert name in _defined_public(layer), dotted
