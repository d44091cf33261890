"""No module of the package but lrvb.expfam compares a family against a
``Family`` member: every per-family convention is a method or attribute
of the family object in ``lrvb.expfam.FAMILIES``.  Declarations such as
``BlockDef("theta", Family.GAUSSIAN_UNIVARIATE)`` name a member without
comparing it and stay allowed.

Nor does any other module refuse a block by testing a family's
``scalar``: an ``if`` on ``.scalar`` whose branches raise.  A family
without a quadrature support refuses in its own ``quad_support()``.
Shaping a value by ``scalar``, as in ``points[:, 0] if fam.scalar else
points``, stays allowed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrvb"
MODULES = [p for p in sorted(SRC.rglob("*.py")) if p != SRC / "expfam.py"]
COMPARISONS = (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq)


def _names_member(node):
    """Whether node is ``Family.X`` (or ``<module>.Family.X``), or a tuple,
    list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_member(elt) for elt in node.elts)
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "Family")
            or (isinstance(owner, ast.Attribute) and owner.attr == "Family"))


def family_comparisons(source):
    """Line numbers of comparisons that involve a ``Family`` member."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, COMPARISONS) for op in node.ops)
            and any(_names_member(x) for x in (node.left, *node.comparators))]


def scalar_rejections(source):
    """Line numbers of ``if`` statements that test a ``.scalar`` attribute
    and raise in one of their branches."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.If)
            and any(isinstance(x, ast.Attribute) and x.attr == "scalar"
                    for x in ast.walk(node.test))
            and any(isinstance(x, ast.Raise)
                    for stmt in node.body + node.orelse for x in ast.walk(stmt))]


def test_checker_flags_family_ladders():
    source = "\n".join([
        "if b.family is Family.GAMMA: pass",
        "if b.family is not expfam.Family.WISHART: pass",
        "if b.family in (Family.GAMMA, Family.INVERSE_GAMMA): pass",
        "if b.family not in [Family.GAUSSIAN_UNIVARIATE]: pass",
        "if Family.WISHART == b.family: pass",
        "x = Family.GAMMA != b.family",
        "blocks = [BlockDef('a', Family.GAMMA), BlockDef('b', Family.WISHART, 2)]",
        "fam = FAMILIES[Family.WISHART]",
        "if b.family is fam.family: pass",
    ])
    assert family_comparisons(source) == [1, 2, 3, 4, 5, 6]


def test_modules_found():
    assert SRC / "mfvb.py" in MODULES and SRC / "models" / "microcredit.py" in MODULES
    assert SRC / "expfam.py" not in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_family_comparisons(path):
    lines = family_comparisons(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} compares against a Family member at lines {lines}"


def test_checker_flags_scalar_rejections():
    source = "\n".join([
        "if not fam.scalar: raise DomainError('scalar blocks only')",
        "if fam is None or not fam.scalar:",
        "    raise DomainError('one scalar block')",
        "if FAMILIES[b.family].scalar:",
        "    pass",
        "else:",
        "    raise DomainError('scalar blocks only')",
        "values = points[:, 0] if fam.scalar else points",
        "if fam.scalar:",
        "    values = points[:, 0]",
        "if not fam.has_location: raise DomainError('no location')",
    ])
    assert scalar_rejections(source) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_scalar_rejections(path):
    lines = scalar_rejections(path.read_text(encoding="utf-8"))
    assert not lines, (f"{path.name} refuses a block by testing .scalar at lines {lines}; "
                       "the family's quad_support() refuses it")
