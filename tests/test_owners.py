"""Each decision of the library has one owner: the functions that may make each call."""

import ast
import pathlib

import pencilpow

SRC = pathlib.Path(pencilpow.__file__).parent


def _owners(matches):
    """``{(module, function)}`` of every node of ``src/pencilpow`` that ``matches``.

    ``module`` is the path below the package and ``function`` the innermost
    enclosing ``def`` (None at module level); a lambda belongs to its ``def``.
    """
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add((module, owner))
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            visit(child, module, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.relative_to(SRC).as_posix(), None)
    return found


def _linalg(routine):
    """Matches a reference ``<...>.linalg.<routine>``, called or passed."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr == routine
                         and getattr(node.value, "attr", None) == "linalg")


def _call(name):
    """Matches a call of ``name`` or of ``<...>.name``."""
    return lambda node: (isinstance(node, ast.Call)
                         and name in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))


def test_each_decision_has_one_owner():
    # only kernels calls LAPACK, only _singular_values and svd its SVD, and
    # only _tri_inv its solve: the one triangular inverse
    assert _owners(_linalg("svd")) == {("kernels.py", "_singular_values"), ("kernels.py", "svd")}
    assert _owners(_linalg("solve")) == {("kernels.py", "_tri_inv")}
    # the expm oracle's LAPACK inverse is the one inverse outside kernels.invert
    assert _owners(_linalg("inv")) == {("harness/experiments.py", "run_expm_experiment")}
    for routine in ("qr", "eigvalsh"):
        assert {module for module, _ in _owners(_linalg(routine))} == {"kernels.py"}, routine
    # one loop over IRS steps, one QR phase normalization, one row builder
    assert _owners(_call("irs_step")) == {("squaring.py", "irs_iter")}
    assert _owners(_call("_positive_diagonal")) == {("kernels.py", "full_qr"),
                                                    ("kernels.py", "_positive_qr")}
    rows = {owner for module, owner in _owners(_call("TrialRecord"))
            if module == "harness/experiments.py"}
    assert rows == {"_row"}


def test_each_product_is_range_checked_once():
    # kernels.matmul refuses an overflowed product itself: no caller re-checks
    # one with _finite, and squaring keeps no product wrapper of its own
    def rechecks(node):
        return _call("_finite")(node) and any(_call("matmul")(sub) for arg in node.args
                                              for sub in ast.walk(arg))
    assert _owners(rechecks) == set()
    wrappers = _owners(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_product")
    assert "squaring.py" not in {module for module, _ in wrappers}
