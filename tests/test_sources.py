"""Source checks: the phase-space modules build exponential tables only
through the factored builder in ``frames``, never as a dense
``np.exp(... np.outer(...))``."""
import ast
import inspect

import pytest

from nusample import psido, timefreq


def _numpy_call(node, name: str) -> bool:
    """A call of ``np.<...>.name`` (``np.outer``, ``np.multiply.outer``)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name):
        return False
    root = node.func.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in ("np", "numpy")


def dense_exp_tables(source: str) -> list:
    """Line numbers of ``np.exp`` calls with an ``np.outer`` in an argument."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if _numpy_call(node, "exp")
                  and any(_numpy_call(inner, "outer")
                          for arg in node.args for inner in ast.walk(arg)))


@pytest.mark.parametrize("module", [timefreq, psido], ids=["timefreq", "psido"])
def test_no_dense_exponential_tables(module):
    assert dense_exp_tables(inspect.getsource(module)) == []


def test_detector_finds_dense_tables():
    assert dense_exp_tables("k = np.exp(-2j * np.pi * np.outer(t, w))\n") == [1]
    assert dense_exp_tables("k = 1\nk = numpy.exp(2j * numpy.multiply.outer(t, w))\n") == [2]
    assert dense_exp_tables("g = np.exp(-np.pi * t**2) * np.outer(a, b)\n") == []
