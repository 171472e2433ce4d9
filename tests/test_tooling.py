import ast
import pathlib
import re
import subprocess
import sys
import types

import kerrpol
from kerrpol import _kernel, oracle

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kerrpol"
PERFBENCH = SRC.parent.parent / "perfbench"


def _package_nodes():
    """(file name, node) for every syntax-tree node of the package."""
    paths = sorted(SRC.glob("*.py"))
    assert paths                                    # the walk sees files
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_squares_by_product():
    # on floats and numpy scalars x ** 2 is C pow, one ulp off on about one
    # float in 1,300; the product x * x is correctly rounded
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and isinstance(node.right, ast.Constant)
             and node.right.value == 2]
    assert found == []


def test_one_stability_gate():
    # FluctuationModel.require_stable alone refuses an unstable model, so
    # the spectra, the oracle and every command give one message
    sites = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(
                 ".")[-1] == "UnstableModelError"]
    assert len(sites) == 1 and sites[0].startswith("spectra.py:")


def test_each_stokes_invariant_is_raised_once():
    # the loss floor and the uncertainty bound are each checked at one site,
    # where their column is made, and a violation and a NaN alike raise
    # NumericalError, so every caller exits 2 on either
    for words in ("loss floor", "uncertainty product"):
        raises = [(name, ast.unparse(node.exc.func))
                  for name, node in _package_nodes()
                  if isinstance(node, ast.Raise) and words in ast.unparse(node)]
        assert raises == [("stokes.py", "NumericalError")], words


def test_files_are_opened_for_writing_only_in_write_files():
    # every output goes through tables.write_files, which writes temporary
    # names and renames them into place all or none
    writers = {"write_text", "write_bytes", "tofile", "savetxt", "save",
               "savez", "fdopen", "mkstemp", "NamedTemporaryFile"}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                last = name.split(".")[-1]
                mode = next((k.value for k in node.keywords
                             if k.arg == "mode"), None) or (
                    node.args[1] if len(node.args) > 1 else ast.Constant("r"))
                opens = last == "open" and (
                    name == "os.open" or not isinstance(mode, ast.Constant)
                    or bool(set(str(mode.value)) & set("wax+")))
                if opens or last in writers:
                    sites.append((path.name, func.name))
    # nested functions see the call too: each site names its function
    assert sorted(set(sites)) == [("tables.py", "write_files")]


def _names(node):
    """The names a syntax-tree node refers to or imports."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    return []


def test_kernel_makes_no_blas_call():
    # matrix products and linalg may go through a threaded BLAS; the kernel
    # stays elementwise so its bits do not depend on the thread count
    tree = ast.parse((SRC / "_kernel.py").read_text())
    banned = {"dot", "matmul", "einsum", "linalg", "tensordot", "inner",
              "vdot"}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(getattr(node, "op", None), ast.MatMult)
             or banned.intersection(_names(node))]
    assert any(isinstance(node, ast.Call) for node in ast.walk(tree))
    assert found == []


def test_package_makes_no_lapack_call():
    # the steady-state cubic and the EM step check have closed forms; no
    # module maps LAPACK's pages, which cost every run about 1 MB of RSS
    found = [f"{name}:{getattr(node, 'lineno', '?')}"
             for name, node in _package_nodes()
             if "linalg" in _names(node)]
    assert found == []


def test_import_loads_only_numpy_and_the_stdlib():
    # the declared dependencies are numpy alone, and a fresh interpreter's
    # import time grows with every module the package and its command line
    # pull in; parsing the shipped config loads none of what only a run needs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import kerrpol, kerrpol.cli; "
            "kerrpol.cli.parse_config(open(sys.argv[2]).read()); "
            "print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent),
         str(SRC.parent.parent / "configs" / "default.cfg")], check=True,
        capture_output=True, text=True).stdout.split()
    assert {"kerrpol.oracle", "kerrpol.cli"} <= set(loaded)
    allowed = {"kerrpol", "numpy", *sys.stdlib_module_names}
    assert [m for m in loaded if m.split(".")[0] not in allowed] == []
    run_only = {"numpy.fft", "numpy.ma", "numpy.random", "concurrent.futures"}
    assert run_only.isdisjoint(loaded)


def test_all_lists_every_public_export():
    # a name deleted from a module cannot linger in __all__, and a public
    # name the package imports is either exported or kept private
    public = sorted(name for name, value in vars(kerrpol).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert len(kerrpol.__all__) == len(set(kerrpol.__all__))
    assert sorted(kerrpol.__all__) == public
    # and every export is something the commands or the benchmark run: the
    # package uses it outside __init__.py and its own def or class, or
    # perfbench names it (by string, for the layers it wraps); a name only
    # the tests use belongs in their references.  A use inside an unused
    # export does not count, so the check repeats until nothing changes
    bench = " ".join(path.read_text()
                     for path in sorted(PERFBENCH.glob("*.py")))
    statements = []     # (top-level name or None, names it refers to)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for statement in ast.parse(path.read_text(), str(path)).body:
                statements.append((getattr(statement, "name", None), {
                    name for node in ast.walk(statement)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    for name in _names(node)}))
    unused, previous = set(), None
    while unused != previous:
        previous = unused
        used = set().union(*(names - {own} for own, names in statements
                             if own not in unused))
        unused = {name for name in kerrpol.__all__ if name not in used
                  and not re.search(rf"\b{name}\b", bench)}
    assert sorted(unused) == []


def test_oracle_chunk_is_whole_kernel_blocks():
    # kernel blocks start at each call's first step, so a chunk of whole
    # blocks keeps every block, and every output bit, of an unchunked run
    assert isinstance(oracle.CHUNK, int)
    assert oracle.CHUNK > 0 and oracle.CHUNK % _kernel.BLOCK == 0


def test_oracle_run_does_not_load_numpy_ma(tmp_path):
    # np.unique loads numpy.ma (about 1 MB of resident memory); the oracle
    # checks and de-duplicates its sorted bins without it
    config = tmp_path / "short.cfg"
    config.write_text("oracle_duration = 5e-5\n")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from kerrpol import cli; "
            "code = cli.main(['oracle', '--config', sys.argv[2], "
            "'--out', sys.argv[3]]); "
            "print(code, 'numpy.ma' in sys.modules)")
    shown = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent), str(config),
         str(tmp_path / "out")], check=True, capture_output=True,
        text=True).stdout.split()
    assert shown[-2:] == ["0", "False"]
