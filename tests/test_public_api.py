"""The package's top-level names: what the README documents, and every name
the benchmark under ``perfbench/`` imports from it."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rectmvt

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTED = {
    # expressions
    "BinOp", "Call", "Const", "EvaluationError", "Expression", "Neg", "ParseError", "Var",
    "const", "evaluate", "parse", "pretty_print",
    # residual fields
    "DegenerateError", "DomainError", "HypothesisError", "Rectangle", "corner_difference",
    "boggio1d_residual", "boggio2d_residual", "pompeiu1d_residual", "pompeiu2d_residual",
    "rect_cauchy_residual", "rect_mvt_residual", "rect_rolle_residual",
    # derivatives
    "eval_hyperdual", "finite_difference_oracle",
    # the locator
    "LocateConfig", "locate", "locate_line", "verify_at",
    # generated cases and sweeps
    "derive_seed", "family_from_name", "generate_function", "generate_rectangle", "run_sweep",
}


def test_all_is_the_documented_list():
    assert sorted(rectmvt.__all__) == sorted(DOCUMENTED)
    assert len(rectmvt.__all__) == len(set(rectmvt.__all__))


def test_every_exported_name_resolves():
    for name in rectmvt.__all__:
        assert getattr(rectmvt, name) is not None, name


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in rectmvt.__all__ if f"`{name}`" not in readme]
    assert not missing


def _benchmark_imports() -> set[str]:
    """Names the benchmark imports with ``from rectmvt import ...``, read from its source."""
    names = set()
    paths = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "perfbench/tests").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "rectmvt" and node.level == 0:
                names.update(alias.name for alias in node.names)
    return names


def test_every_name_the_benchmark_imports_is_exported():
    names = _benchmark_imports()
    assert {"locate_line", "LocateConfig", "run_sweep"} <= names  # the scan found the imports
    # a submodule (``from rectmvt import cli``) is importable without an export
    submodules = {n for n in names if importlib.util.find_spec(f"rectmvt.{n}") is not None}
    assert not names - submodules - set(rectmvt.__all__)


def test_runtime_imports_no_test_or_bench_dependency():
    # run from the tests directory, where the test reference is importable, so
    # a runtime import of it would succeed and show here rather than fail
    code = (
        "import sys, rectmvt, rectmvt.cli, rectmvt.expr, rectmvt.harness, "
        "rectmvt.hyperdual, rectmvt.locator, rectmvt.theorems; print(*sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rectmvt.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "numpy" in out and "rectmvt.cli" in out
    loaded = {name.partition(".")[0] for name in out}
    assert not loaded & {"hyperdual_reference", "expr_reference", "sympy", "scipy", "hypothesis", "pytest"}
