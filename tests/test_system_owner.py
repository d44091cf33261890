"""No module of the package but lrvb.linear_response defines or calls the
objective Hessian, or takes the stacked statistic covariance V of a layout:
B = I - L'HL is assembled in one place, which the fit's Newton polish and
``build_system`` share.  A family's own ``fam.suff_stat_cov(eta)`` (one
block's V) stays allowed.

Nor does any other module read the dense fields of an ``LrvbSystem``
(``sigma_hat``, ``v``, ``h``): they ask the system for ``solve``,
``variances`` and the (I - VH)^-1 products, so the representation of the
corrected covariance is linear_response's alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrvb"
MODULES = [p for p in sorted(SRC.rglob("*.py")) if p != SRC / "linear_response.py"]


def _is_layout(node):
    """Whether node is ``layout`` or ``<anything>.layout``."""
    return ((isinstance(node, ast.Name) and node.id == "layout")
            or (isinstance(node, ast.Attribute) and node.attr == "layout"))


def system_uses(source):
    """Line numbers that define or call ``hessian_of_objective``, assign
    ``HESSIAN_REL_STEP``, or call ``suff_stat_cov`` on a layout."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "hessian_of_objective":
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HESSIAN_REL_STEP" for t in node.targets):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "hessian_of_objective":
                lines.append(node.lineno)
            elif isinstance(func, ast.Attribute) and (
                    func.attr == "hessian_of_objective"
                    or (func.attr == "suff_stat_cov" and _is_layout(func.value))):
                lines.append(node.lineno)
    return sorted(lines)


DENSE_FIELDS = ("sigma_hat", "v", "h")


def dense_reads(source):
    """Line numbers that read an attribute named like a dense field of
    ``LrvbSystem``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in DENSE_FIELDS)


def test_checker_flags_second_assemblies():
    source = "\n".join([
        "h = hessian_of_objective(model, m, alpha)",
        "h = linear_response.hessian_of_objective(model, m)",
        "v = layout.suff_stat_cov(m)",
        "v = model.layout.suff_stat_cov(m)",
        "def hessian_of_objective(model, m): pass",
        "HESSIAN_REL_STEP = 1e-5",
        "vblk = fam.suff_stat_cov(eta)",
        "from .linear_response import hessian_of_objective",
        "step = linear_response.HESSIAN_REL_STEP",
    ])
    assert system_uses(source) == [1, 2, 3, 4, 5, 6]


def test_modules_found():
    assert SRC / "mfvb.py" in MODULES and SRC / "robustness.py" in MODULES
    assert SRC / "linear_response.py" not in MODULES


def test_owner_defines_and_calls():
    assert system_uses((SRC / "linear_response.py").read_text(encoding="utf-8"))


def test_checker_flags_dense_reads():
    source = "\n".join([
        # the four reads of sigma_hat that the system's queries replaced
        "sds = np.sqrt(np.maximum(np.diag(sys_.sigma_hat), 0.0))",
        "sds = np.sqrt(np.diag(sys_.sigma_hat)[loc])",
        "return sys.sigma_hat @ grad_f",
        "variance = float(grad_h @ sys.sigma_hat @ grad_h)",
        "vh = sys.v @ sys.h",
        "sens = sys.solve(g)",
        "var = sys.variances(loc)",
        "v, h = model.layout.suff_stat_cov(m), hess",
    ])
    assert dense_reads(source) == [1, 2, 3, 4, 5, 5]


def test_owner_reads_dense_fields():
    assert dense_reads((SRC / "linear_response.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_second_assembly(path):
    lines = system_uses(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} assembles part of I - L'HL at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dense_system_reads(path):
    lines = dense_reads(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} reads a dense LrvbSystem field at lines {lines}"
