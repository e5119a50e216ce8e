"""Source checks: every module builds tables of sampled exponentials
exp(+-2 pi i x . g) through ``spectral.exp_table``.  A dense table, an
``np.exp`` of an imaginary multiple of a matrix (``@``) or outer
(``np.outer``) product, may appear only inside the builder's own dense
piece, ``spectral._exp_matrix``.
Elementwise modulations such as ``np.exp(-2j * np.pi * y * lam)`` are not
tables and pass.  The chirp-z split of those tables is known to
``spectral`` alone: no other module reads its factor tables, their column
counts or the block size of the sums over them.

Every defaulted keyword option of a public function or method is set by some
call in the package, its tests or its benchmark; an option nothing sets is a
constant.  Every public function and method is used, outside its own
definition, by the package, its benchmark or the acceptance tests of the
paper's claims (``tests/test_acceptance.py``); a name only unit tests call is
a test oracle and lives in the tests.  A method is used only through an
attribute read, never through a bare variable of the same name.  Every name
a module binds at its top level is read by the package, its tests or its
benchmark.  Every name a module imports is read in that module.  Every
config field a CLI command declares is set by a shipped config or a test.
Importing the package loads neither ``scipy.signal`` nor ``scipy.stats``,
and running any command loads no ``scipy.linalg``.  No module imports
``scipy.spatial``: 2-d polytopes take their hull from numpy."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nusample
from nusample import cli

SOURCES = {path.stem: path for path in sorted(Path(nusample.__file__).parent.glob("*.py"))}
ALLOWED = {("spectral", "_exp_matrix")}
# the names of the factor split k = J q + j, which only ``spectral`` reads
SPLIT_NAMES = {"_exp_factors", "_factor_columns", "_FACTOR_EXPONENTIALS", "_factored_table",
               "_axis_factors", "_SUM_ROWS"}
REPO = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "perfbench")
# the callers whose use keeps a public name in the package
USERS = sorted([*(REPO / "src").rglob("*.py"), *(REPO / "perfbench").rglob("*.py"),
                REPO / "tests" / "test_acceptance.py"])
# Two quantities the paper states, which no command reports and only their own
# unit tests compute: the windowed lower Beurling density and the p-th power
# bound on swept test functions.  They are results of the package, not oracles.
UNUSED_ALLOWED = {("sampling", "lower_beurling_density"), ("balayage", "lp_balayage_bound")}


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
    """The allowance is used: the dense builder is the one place the
    detector finds in ``spectral``; the factor tables are run out from
    their first columns and form no dense table."""
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


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"spectral"}))
def test_only_spectral_reads_the_factor_split(name):
    bare, attrs = references(SOURCES[name].read_text())
    assert (bare | attrs) & SPLIT_NAMES == set()


def _defaulted(fn, skip: int) -> list:
    """(parameter, position) of each defaulted parameter of ``fn``; the
    position counts from the first argument after ``skip`` bound ones and is
    None for keyword-only parameters."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first]
            + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def public_options(source: str) -> list:
    """(call name, parameter, position) of every defaulted option of the
    module's public functions and of its public classes' public methods and
    constructors, which are called by the class name.  A method's first
    parameter (``self`` or ``cls``) is bound, so positions start after it."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [(node.name, *opt) for opt in _defaulted(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    name = node.name if fn.name == "__init__" else fn.name
                    out += [(name, *opt) for opt in _defaulted(fn, 1)]
    return out


def _called_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def call_sites(source: str, names: set) -> list:
    """(name, positional count, keyword names) of every call of a function in
    ``names``, direct or forwarded: in ``t.call("span", fn, x, k=1)`` or
    ``partial(fn, x)`` the arguments after ``fn`` are ``fn``'s.  A ``*args``
    splat counts as every position and a ``**kwargs`` splat as every keyword."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        keywords = {k.arg for k in node.keywords}
        sites = [(_called_name(node.func), node.args)]
        sites += [(_called_name(a), node.args[i + 1:]) for i, a in enumerate(node.args)
                  if _called_name(a) in names]
        for name, args in sites:
            if name in names:
                star = any(isinstance(a, ast.Starred) for a in args)
                out.append((name, float("inf") if star else len(args), keywords))
    return out


def unset_options(sources: dict, callers: list) -> list:
    """(module, call name, parameter) of every public option no call sets."""
    options = [(mod, *opt) for mod, src in sources.items() for opt in public_options(src)]
    names = {name for _, name, _, _ in options}
    calls = [c for src in callers for c in call_sites(src, names)]
    return [(mod, name, param) for mod, name, param, pos in options
            if not any(cname == name and (param in kws or None in kws
                                          or (pos is not None and npos > pos))
                       for cname, npos, kws in calls)]


def test_every_option_has_a_caller():
    callers = [path.read_text() for d in CALLER_DIRS for path in sorted((REPO / d).rglob("*.py"))]
    sources = {name: path.read_text() for name, path in SOURCES.items()}
    assert unset_options(sources, callers) == []


def test_option_scan_sees_every_way_of_setting():
    src = ("def f(a, b=1, *, c=2):\n    pass\n"
           "class K:\n    def __init__(self, x, y=0):\n        pass\n"
           "    def m(self, z=1):\n        pass\n"
           "def _hidden(q=1):\n    pass\n")
    assert public_options(src) == [("f", "b", 1), ("f", "c", None), ("K", "y", 1),
                                   ("m", "z", 0)]
    unset = {("mod", "f", "b"), ("mod", "f", "c"), ("mod", "K", "y"), ("mod", "m", "z")}
    assert set(unset_options({"mod": src}, [])) == unset
    assert unset_options({"mod": src}, ["f(1, 2, c=3)\nK(0, 1)\nk.m(2)\n"]) == []
    assert unset_options({"mod": src}, ["t.call('s', f, 1, 2, c=3)\npartial(K, 0, y=1)\n"
                                        "m(**kw)\n"]) == []
    assert set(unset_options({"mod": src}, ["f(*args)\n"])) == unset - {("mod", "f", "b")}


def public_names(source: str) -> list:
    """(name, is a method) of the module's public functions and of its public
    classes' public methods.  A function under a decorator call, such as a
    CLI command's ``@command(...)``, is used through that registration."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            if not any(isinstance(d, ast.Call) for d in node.decorator_list):
                out.append((node.name, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(fn.name, True) for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return out


def references(source: str) -> tuple[set, set]:
    """The names the source reads bare and the names it reads as attributes,
    except where a function mentions its own name inside its own body.
    Binding a name, as in ``x = 1`` or ``k.x = 1``, does not read it."""
    bare, attrs = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and loaded and node.id not in inside:
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and loaded and node.attr not in inside:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return bare, attrs


def unused_names(sources: dict, callers: list) -> list:
    """(module, name) of every public function no caller reads, bare or as an
    attribute, and of every public method no caller reads as an attribute."""
    refs = [references(src) for src in callers]
    attrs = set().union(*(a for _, a in refs))
    used = attrs.union(*(b for b, _ in refs))
    return [(mod, name) for mod, src in sources.items() for name, method in public_names(src)
            if name not in (attrs if method else used)]


def test_every_public_name_is_used():
    callers = [path.read_text() for path in USERS]
    sources = {name: path.read_text() for name, path in SOURCES.items()}
    assert set(unused_names(sources, callers)) == UNUSED_ALLOWED


def test_name_scan_sees_every_use():
    src = ("def f(n):\n    return f(n - 1)\n"
           "class K:\n    def m(self):\n        pass\n    def _p(self):\n        pass\n"
           "@register('x')\ndef r():\n    pass\n")
    assert public_names(src) == [("f", False), ("m", True)]
    assert unused_names({"mod": src}, [src]) == [("mod", "f"), ("mod", "m")]
    assert unused_names({"mod": src}, [src, "g = f\nk.m()\n"]) == []
    # a bare variable that shares a method's name does not use the method
    assert unused_names({"mod": src}, [src, "m = f\nprint(m)\n"]) == [("mod", "m")]


def module_names(source: str) -> list:
    """Names the module binds at its top level by assignment, ``def`` or
    ``class``, dunders aside.  A function under a decorator call, such as a
    CLI command's ``@command(...)``, is used through that registration."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        elif isinstance(node, ast.ClassDef) or (
                isinstance(node, ast.FunctionDef)
                and not any(isinstance(d, ast.Call) for d in node.decorator_list)):
            out.append(node.name)
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def dead_names(sources: dict, callers: list) -> list:
    """(module, name) of every module-level name no caller reads."""
    used = set().union(*(b | a for b, a in map(references, callers)))
    return [(mod, name) for mod, src in sources.items() for name in module_names(src)
            if name not in used]


def test_every_module_name_is_read():
    callers = [path.read_text() for d in CALLER_DIRS for path in sorted((REPO / d).rglob("*.py"))]
    sources = {name: path.read_text() for name, path in SOURCES.items()}
    assert dead_names(sources, callers) == []


def test_dead_name_scan_sees_every_binding():
    src = ("import os\n__all__ = ['f']\n_A, (B, c) = 1, (2, 3)\nD: int = 4\nE = D\n"
           "def f(n):\n    return f(n - 1)\nclass K:\n    x = 1\n"
           "@register('x')\ndef r():\n    pass\nk.c = 5\n")
    assert module_names(src) == ["_A", "B", "c", "D", "E", "f", "K"]
    assert dead_names({"mod": src}, [src]) == [("mod", "_A"), ("mod", "B"), ("mod", "c"),
                                               ("mod", "E"), ("mod", "f"), ("mod", "K")]
    assert dead_names({"mod": src}, [src, "print(_A, B, m.c, E)\ng = f\n"]) == [
        ("mod", "K")]


def unused_imports(source: str) -> list:
    """Names bound by an ``import`` anywhere in the module (``__future__``
    features aside) that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names]
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"__init__"}))
def test_every_import_is_used(name):
    assert unused_imports(SOURCES[name].read_text()) == []


def test_import_scan_sees_every_read():
    src = ("from __future__ import annotations\nimport csv\nimport os.path\n"
           "import numpy as np\nfrom json import dump, load as read\n"
           "def f(x: np.ndarray):\n    from math import pi\n    return read(os.sep)\n")
    assert unused_imports(src) == ["csv", "dump", "pi"]
    assert unused_imports("import csv\ncsv = 1\n") == ["csv"]
    assert unused_imports("from . import cli\nprint(cli.main)\n") == []


def test_import_leaves_out_scipy_signal_and_stats():
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, nusample; "
         "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.spatial') "
         "if m in sys.modules))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    assert loaded.strip() == "[]"


def test_cli_import_leaves_out_scipy_linalg(tmp_path):
    # the two commands that solve balayage systems take LAPACK's routines from
    # scipy's compiled _flapack alone
    script = ("import sys\nfrom nusample import cli\n"
              "for name in ('identity', 'psido'):\n"
              "    code = cli.main([name, '--config', f'{sys.argv[1]}/configs/{name}.json',\n"
              "                     '--out', f'{sys.argv[2]}/{name}'])\n"
              "    assert code == 0, (name, code)\n"
              "print('scipy.linalg' in sys.modules)")
    loaded = subprocess.run(
        [sys.executable, "-c", script, str(REPO), str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    assert loaded.strip().splitlines()[-1] == "False"


def test_polytope_hull_leaves_out_scipy_spatial():
    # the 2-d hull is a numpy monotone chain; building and querying a polytope
    # and its polar must not load scipy.spatial (nor, through it, scipy.sparse)
    script = ("import sys\nfrom nusample.geometry import SpectrumSet\n"
              "p = SpectrumSet.polytope([[0.5, 0.2], [-0.5, -0.2], [0.1, 0.55], [-0.1, -0.55]])\n"
              "p.gauge([[0.1, 0.2]]); p.boundary_distance([0.0, 0.1]); p.polar().enlarged(0.1)\n"
              "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))")
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    assert loaded.strip() == "[]"


def test_src_imports_no_scipy_spatial():
    for path in sorted((REPO / "src" / "nusample").glob("*.py")):
        assert "scipy.spatial" not in path.read_text(), path.name


# config fields no shipped config sets; each is set by a test in tests/test_cli.py
TEST_SET_FIELDS = {("gabor", "cond_threshold"), ("sampling:points", "dim"),
                   ("sampling:points", "points"), ("sampling:points", "window"),
                   ("sampling:csv", "path"), ("spectrum:ball", "radius"),
                   ("spectrum:ball", "dim"), ("spectrum:polytope", "vertices"),
                   ("spectrum:polytope", "dim")}


def declared_fields(fields: dict, owner: str) -> set:
    """(owner, name) of every declared field; a nested section owns its own
    fields and its tag, and the fields of one tag value are owned by
    ``<section>:<value>``."""
    out = set()
    for name, decl in fields.items():
        out.add((owner, name))
        if isinstance(decl, cli.Section) and decl.tag:
            out.add((name, decl.tag))
            for kind, sub in decl.fields.items():
                out |= declared_fields(sub, f"{name}:{kind}")
        elif isinstance(decl, cli.Section):
            out |= declared_fields(decl.fields, name)
    return out


def set_fields(fields: dict, data: dict, owner: str) -> set:
    """(owner, name) of every field ``data`` sets, named as in
    :func:`declared_fields`."""
    out = set()
    for name, value in data.items():
        out.add((owner, name))
        decl = fields[name]
        if isinstance(decl, cli.Section):
            for item in value if decl.many else [value]:
                if decl.tag:
                    out.add((name, decl.tag))
                    kind = item[decl.tag]
                    rest = {k: v for k, v in item.items() if k != decl.tag}
                    out |= set_fields(decl.fields[kind], rest, f"{name}:{kind}")
                else:
                    out |= set_fields(decl.fields, item, name)
    return out


def test_every_config_field_is_set():
    declared, set_by_configs = set(), set()
    for name, fields in cli.FIELDS.items():
        declared |= declared_fields(fields.fields, name)
    for path in sorted((REPO / "configs").glob("*.json")):
        name = path.stem.replace("_", "-")
        set_by_configs |= set_fields(cli.FIELDS[name].fields, json.loads(path.read_text()),
                                     name)
    assert declared - set_by_configs == TEST_SET_FIELDS
    cli_tests = (REPO / "tests" / "test_cli.py").read_text()
    assert [f for _, f in sorted(TEST_SET_FIELDS) if f'"{f}"' not in cli_tests] == []
