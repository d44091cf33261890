"""Both stages of the fit step through one line search: in lrvb.mfvb the
objective closure ``evaluate`` is called only inside ``_line_search``, plus
once in ``fit`` for the start point, so the quasi-Newton stage and the
Newton polish accept a step by the same rule."""

import ast
import collections
import pathlib

MFVB = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrvb" / "mfvb.py"


def evaluate_calls(source):
    """(enclosing function, line) of each call of a name ``evaluate``; the
    enclosing function of a call at module level is None."""
    calls = []

    def visit(node, func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "evaluate"):
            calls.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef)) else func)

    visit(ast.parse(source), None)
    return calls


def test_checker_finds_calls_and_their_functions():
    source = "\n".join([
        "def fit(model):",
        "    def evaluate(z):",
        "        return z",
        "    point = evaluate(z0)",
        "    for _ in range(3):",
        "        f = evaluate(z + step)",
        "    return _line_search(evaluate, z)",  # passed on, not called
        "def _line_search(evaluate, z):",
        "    return evaluate(z)",
        "x = evaluate(0)",
        "y = self.evaluate(0)",
    ])
    assert evaluate_calls(source) == [("fit", 4), ("fit", 6), ("_line_search", 9),
                                      (None, 10)]


def test_objective_evaluated_only_by_the_line_search():
    calls = evaluate_calls(MFVB.read_text(encoding="utf-8"))
    counts = collections.Counter(func for func, _ in calls)
    assert counts["_line_search"] >= 1
    assert counts["fit"] == 1, f"fit evaluates at lines {calls}"
    others = [(func, line) for func, line in calls if func not in ("fit", "_line_search")]
    assert not others, f"evaluate called outside _line_search at {others}"
