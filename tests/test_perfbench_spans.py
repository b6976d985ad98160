"""The span names the benchmark's tracer measures resolve in the package.

``perfbench/tracing.py`` turns spans into per-layer metrics by function
name.  A name that no longer resolves reads 0 instead of failing, so a rename
in the package would silently zero its metric; this test lists the names that
are known not to resolve and fails on any other.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Functions merged away since the tracer named them; their metrics read 0.
UNRESOLVED = {
    "covmodel.SparseSupportSpec.autocovariance",
    "covmodel.inverse_power_gamma",  # moved to tests/oracles.py; no workload called it
    "covmodel.from_moving_average",
    "covmodel.sparse_support_covariance",
    "covmodel.symbol_from_name",
    "szego.log_symbol_coefficients",  # now SpectralSymbol.c; szego.logsym_s reads 0
    # Deleted: verify's checks call sweep_moments; no workload reached it, and
    # verify.draws_per_requested and verify.gemm_gflop read 0.0 before and after.
    "verify._product_moments",
    # Moved to tests/oracles.py; no workload reached it either.
    "verify.sample_gaussian",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_names() -> set:
    """Names in the tracer's sets and EXTRA, and string arguments of its lookups."""
    tracing = _load_tracing()
    names = set()
    for value in vars(tracing).values():
        if isinstance(value, (set, frozenset)) and all(isinstance(v, str) for v in value):
            names |= value
    for layer, attrs in tracing.EXTRA.items():
        names |= {f"{layer}.{attr}" for attr in attrs}
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"named", "outer_time", "_has_ancestor"}
        ):
            for arg in node.args:
                names |= {
                    sub.value
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                }
    return names


def _resolves(name: str) -> bool:
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"gaussdecoup.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return callable(obj)


def test_span_names_resolve():
    names = _span_names()
    # One name from each source: a name set, EXTRA, named, outer_time, _has_ancestor.
    assert {
        "covmodel.symbol_from_grid",
        "verify._product_moments",
        "brascamp.eb_objective",
        "decoupling.refined_constant",
        "brascamp.eb_optimize",
    } <= names
    assert {name for name in names if not _resolves(name)} == UNRESOLVED
