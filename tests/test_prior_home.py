"""The prior has one home, the model's ``hyperparams``.  No module-level
function or method of mfvb, linear_response, robustness or oracle takes a
parameter named ``alpha``, except ``mfvb.fit``, which fits
``replace(model, hyperparams=alpha)``: another prior is another model.

Functions nested in others are exempt: the model hooks that builders and
``oracle.contaminated_model`` define take alpha, so that sensitivities can
difference them in alpha without rebuilding the model."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrvb"
ENGINE = ["mfvb.py", "linear_response.py", "robustness.py", "oracle.py"]
ALLOWED = {"mfvb.py": ["fit"]}


def alpha_takers(source):
    """Names of the module-level functions and methods with a parameter
    named ``alpha``; nested functions are not looked into."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            defs = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, functions)]
        else:
            continue
        for name, f in defs:
            a = f.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "alpha" for p in params):
                found.append(name)
    return found


def test_checker_flags_alpha_parameters():
    source = "\n".join([
        "def elbo(model, m, alpha=None): pass",
        "def fit(model, init=None, alpha=None): pass",
        "class ModelSpec:",
        "    def resolve_alpha(self, alpha): pass",
        "    def factorized_block(self, block): pass",
        "async def query(model, *, alpha): pass",
        "def rerun(model, **alpha): pass",
        "def contaminated_model(model, eps):",
        "    def expected_log_prior(m, alpha): pass",
        "    return expected_log_prior",
        "def at(model, prior): alpha = prior",
        "perturbed = lambda alpha: alpha",
    ])
    assert alpha_takers(source) == ["elbo", "fit", "ModelSpec.resolve_alpha", "query",
                                    "rerun"]


@pytest.mark.parametrize("module", ENGINE)
def test_only_fit_takes_alpha(module):
    found = alpha_takers((SRC / module).read_text(encoding="utf-8"))
    assert found == ALLOWED.get(module, []), f"{module} takes alpha in {found}"
