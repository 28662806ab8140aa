"""scipy's special-function code loads on first use only, and its
quadrature code never.

bessel imports the scipy package alone and spells its calls
scipy.special.k0/k1, so the exact commands never load scipy.special; the
K oracle is a numpy trapezoid rule and orbit's radial integral a closed form,
so no command loads scipy.integrate.  The test session has long imported
both (the tests use scipy.integrate as an independent oracle), so the
start-up checks run in fresh processes.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minorbit import bessel, cli, orbit

SRC = Path(cli.__file__).resolve().parents[1]
LAZY = ("scipy.special", "scipy.integrate")
EXACT_COMMANDS = (
    [["table"]]
    + [["verify", suite, "--model", model, "--n", "2"]
       for suite in ("structural", "constants", "modular", "crown")
       for model in ("o2n2n", "gl2n")]
    + [["tensor", "audit", "--model", "o2n2n", "--n", "3", "--k", "2"]]
)
BESSEL_TABLE = ["bessel", "--tau", "1", "--zmin", "0.01", "--zmax", "30", "--steps", "500"]
# the analytic commands, each on an integer order that loads the k0/k1 ladder
# (gl2n has tau = 0; o2n2n's tau = 1/2 is a closed form and loads no scipy)
ANALYTIC_COMMANDS = (
    BESSEL_TABLE,
    ["verify", "spherical", "--model", "gl2n", "--n", "2", "--samples", "20000"],
    ["fourier", "--model", "gl2n", "--n", "2", "--samples", "10000", "--steps", "3"],
)
RADIAL_INTEGRAL = (1.5, 7)

# run in a fresh interpreter; prints one JSON line
_FRESH = """
import contextlib, io, json, sys
from minorbit import cli, orbit

def loaded():
    return [name for name in {lazy!r} if name in sys.modules]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

result = {{"before": loaded(), "exact": []}}
for argv in {exact!r}:
    result["exact"].append(run(argv)[0])
result["after_exact"] = loaded()
if {analytic!r}:
    result["analytic"] = run({analytic!r})
    result["after_analytic"] = loaded()
    if {analytic!r} == {table!r}:
        result["radial"] = orbit.l2_radial_integral(*{radial!r}).hex()
print(json.dumps(result))
"""


def _fresh(exact=EXACT_COMMANDS, analytic=None):
    code = _FRESH.format(lazy=LAZY, exact=exact, analytic=analytic, table=BESSEL_TABLE,
                         radial=RADIAL_INTEGRAL)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_never_load_scipy_special_or_integrate():
    result = _fresh()
    assert result["before"] == []
    assert result["exact"] == [cli.EXIT_PASS] * len(EXACT_COMMANDS)
    assert result["after_exact"] == []


@pytest.mark.parametrize("argv", ANALYTIC_COMMANDS, ids=lambda argv: argv[0])
def test_analytic_commands_load_scipy_special_bit_identically_and_never_integrate(argv):
    # positive control: each command loads scipy.special through the k0/k1
    # ladder, and the quadrature audit of its orders, a numpy trapezoid rule,
    # loads nothing more; the command's output, and in the table's process
    # the closed-form radial integral, are the bits computed in this
    # process, where scipy was loaded long before
    result = _fresh(exact=(), analytic=argv)
    assert result["before"] == []
    assert result["after_analytic"] == ["scipy.special"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert result["analytic"] == [code, buf.getvalue()]
    if argv == BESSEL_TABLE:
        assert code == cli.EXIT_PASS
        assert result["radial"] == orbit.l2_radial_integral(*RADIAL_INTEGRAL).hex()


def test_library_never_references_scipy_integrate():
    # the K oracle is a numpy trapezoid rule; tests may still use
    # scipy.integrate as an independent oracle, the library may not.  Nor
    # does it call scipy.special.kv: the kernel takes integer and
    # half-integer orders only, from k0/k1 and the closed forms
    for path in sorted(SRC.joinpath("minorbit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "scipy.integrate" not in text, path.name
        assert "scipy.special.kv" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("integrate", "kv"), (path.name, node.lineno)
            elif isinstance(node, ast.Import):
                assert all(not alias.name.startswith("scipy.integrate")
                           for alias in node.names), (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy.integrate"), path.name
                assert not (node.module == "scipy"
                            and any(alias.name == "integrate" for alias in node.names)), path.name


def test_scipy_imported_as_the_package_at_module_level_only():
    # scipy's module __getattr__ loads a submodule on first attribute access
    # and binds it, so later calls are plain lookups; an import inside a
    # function would cost every scalar k_ladder call
    for path in sorted(SRC.joinpath("minorbit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "scipy", path.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "scipy":
                        assert alias.name == "scipy" and alias.asname is None, path.name
                        assert id(node) in top, path.name
    for module in (bessel, orbit):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                               for node in ast.walk(func)), (module.__name__, func)
