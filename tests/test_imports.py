"""Every module-level import in the package is read somewhere in its module,
and every module-level private name somewhere in the repository."""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orliczfrac"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """(line, name) of each module-level import binding that is never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = "from os import path, sep\nimport numpy as np\nprint(sep)\n"
    assert _unused_imports(src) == [(1, "path"), (2, "np")]


# Module-level private names (functions, classes, assigned constants) must
# be read somewhere in the source, the tests or the benchmark, outside their
# own definition. A string equal to the name counts as a read, since the
# benchmark's tracing patches functions by name.
REPO = PACKAGE.parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (REPO / d).rglob("*.py"))


def _private_definitions(tree):
    """(name, statement) of each module-level private definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            lhs = getattr(node, "targets", None) or [node.target]
            targets = [n.id for t in lhs for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node):
    """Names read in a subtree: loads, attributes, imports, strings."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


@functools.lru_cache(maxsize=None)
def _file_reads(path):
    return frozenset(_reads(ast.parse(path.read_text())))


def _dead_private_names(module_source, elsewhere):
    """Private names of the module read neither in its other statements
    nor in `elsewhere`."""
    tree = ast.parse(module_source)
    dead = []
    for name, stmt in _private_definitions(tree):
        here = set().union(*(_reads(s) for s in tree.body if s is not stmt))
        if name not in here | elsewhere:
            dead.append(name)
    return dead


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_private_names(path):
    elsewhere = set().union(*(_file_reads(p) for p in SOURCES if p != path))
    assert _dead_private_names(path.read_text(), elsewhere) == []


def test_detects_a_dead_private_name():
    src = ("_USED = 1\n_UNUSED = 2\n_A, _B = 3, 4\n"
           "def _helper():\n    return _helper()\n"
           "def f():\n    return _USED + _A\n")
    assert _dead_private_names(src, {"x", "_B"}) == ["_UNUSED", "_helper"]


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate pulls in scipy.optimize and numpy.f2py, a large share
    # of a CLI call's start-up; only `tilde_prelimit` needs it, and imports
    # it itself.
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import orliczfrac.cli; print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # scipy serves only `tilde_prelimit` and the n = 2, 3 log-moment closed
    # form, which import it on first use
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import orliczfrac.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kinked_growth_set_up_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma, a measurable share of a CLI call's
    # start-up; the screening grid of a kinked G dedupes without it
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "from orliczfrac.cli import parse_growth; "
            "parse_growth('power_log(3)'); "
            "parse_growth('max(power(2), power(3))'); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_solves_load_no_scipy(tmp_path):
    # the Newton and gradient directions solve in numpy alone (a chain
    # solve at s = 1, a dense one below it); a scipy solver here would add
    # the scipy import to every CLI solve
    configs = {
        "local": "command = solve\nG = power(3)\ns = 1\nnodes = 33\n",
        "fractional": "command = solve\nG = power(3)\ns = 0.7\nnodes = 33\n",
        "gamma": ("command = gamma\nG = power_log(3)\ns_list = 0.9,0.99\n"
                  "nodes = 17\n"),
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "from orliczfrac.cli import main; "
            f"runs = [main([c, '--config', {str(tmp_path)!r} + '/' + n "
            f"+ '.cfg', '--out', {str(tmp_path)!r}]) for c, n in "
            "(('solve', 'local'), ('solve', 'fractional'), "
            "('gamma', 'gamma'))]; "
            "print(runs, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"
