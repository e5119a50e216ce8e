"""Source checks: every module builds tables of sampled exponentials
exp(+-2 pi i x . g) through ``spectral.exp_table``.  A dense table, an
``np.exp`` of an imaginary multiple of a matrix (``@``) or outer
(``np.outer``) product, may appear only inside the builder's own dense
pieces, ``spectral._exp_matrix`` and ``spectral._exp_factors``.
Elementwise modulations such as ``np.exp(-2j * np.pi * y * lam)`` are not
tables and pass."""
import ast
from pathlib import Path

import pytest

import nusample

SOURCES = {path.stem: path for path in sorted(Path(nusample.__file__).parent.glob("*.py"))}
ALLOWED = {("spectral", "_exp_matrix"), ("spectral", "_exp_factors")}


def _numpy_call(node, name: str) -> bool:
    """A call of ``np.<...>.name`` (``np.outer``, ``np.multiply.outer``)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name):
        return False
    root = node.func.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in ("np", "numpy")


def _is_dense_table(node) -> bool:
    """An ``np.exp`` call whose argument holds an imaginary constant and a
    matrix or outer product."""
    if not _numpy_call(node, "exp"):
        return False
    inner = [n for arg in node.args for n in ast.walk(arg)]
    imaginary = any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
                    for n in inner)
    product = any((isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult))
                  or _numpy_call(n, "outer") for n in inner)
    return imaginary and product


def dense_exp_tables(source: str) -> list:
    """(enclosing function, line) of every dense exponential table; module
    level code is reported under the name ``"<module>"``."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)   # outermost function wins
    return sorted((owner.get(node, "<module>"), node.lineno)
                  for node in ast.walk(tree) if _is_dense_table(node))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_dense_exponential_tables(name):
    source = SOURCES[name].read_text()
    found = [(fn, line) for fn, line in dense_exp_tables(source) if (name, fn) not in ALLOWED]
    assert found == []


def test_builder_keeps_its_dense_pieces():
    """The allowance is used: the dense builder and the factor tables are the
    two places the detector finds in ``spectral``."""
    found = {fn for fn, _ in dense_exp_tables(SOURCES["spectral"].read_text())}
    assert found == {fn for _, fn in ALLOWED}


def test_detector_finds_dense_tables():
    assert dense_exp_tables("k = np.exp(-2j * np.pi * np.outer(t, w))\n") == [("<module>", 1)]
    assert dense_exp_tables("k = 1\nk = numpy.exp(2j * numpy.multiply.outer(t, w))\n") == [
        ("<module>", 2)]
    assert dense_exp_tables("def f(x, g):\n    return np.exp(2j * np.pi * (x @ g.T))\n") == [
        ("f", 2)]
    assert dense_exp_tables("g = np.exp(-np.pi * t**2) * np.outer(a, b)\n") == []
    assert dense_exp_tables("u = np.exp(-2j * np.pi * y * lam)\n") == []
    assert dense_exp_tables("s = np.exp(-(x @ g.T))\n") == []
