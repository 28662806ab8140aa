"""scipy's special-function and quadrature code loads on first use only.

bessel imports the scipy package alone and spells its calls
scipy.special.kv/k0/k1 and scipy.integrate.quad, so the exact commands
never load scipy.special or scipy.integrate; orbit's radial integral is a
closed form and loads neither.  The test session has long imported both,
so the start-up checks run in fresh processes.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
# the CLI table takes half-integer orders only; tau = 0.25 reaches kv
# through the library
BESSEL_TABLE = ["bessel", "--tau", "1", "--zmin", "0.01", "--zmax", "30", "--steps", "500"]
KV_ORDER = 0.25
RADIAL_INTEGRAL = (1.5, 7)

# run in a fresh interpreter; prints one JSON line
_FRESH = """
import contextlib, io, json, sys
import numpy as np
from minorbit import bessel, cli, orbit

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
    result["table"] = run({table!r})
    result["kv"] = bessel.bessel_k({kv!r}, np.linspace(0.01, 30.0, 500)).tobytes().hex()
    result["radial"] = orbit.l2_radial_integral(*{radial!r}).hex()
    result["after_analytic"] = loaded()
print(json.dumps(result))
"""


def _fresh(exact=EXACT_COMMANDS, analytic=False):
    code = _FRESH.format(lazy=LAZY, exact=exact, analytic=analytic, table=BESSEL_TABLE,
                         kv=KV_ORDER, radial=RADIAL_INTEGRAL)
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


def test_first_k_evaluation_and_quadrature_load_scipy_bit_identically():
    # positive control: the tau = 1 table loads scipy.special through the
    # k0/k1 ladder and scipy.integrate through the quadrature audit of its
    # orders; the table, the kv branch and the closed-form radial integral
    # give the bits computed in this process, where scipy was loaded long
    # before
    result = _fresh(exact=(), analytic=True)
    assert result["before"] == []
    assert result["after_analytic"] == list(LAZY)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(BESSEL_TABLE)) == cli.EXIT_PASS
    assert result["table"] == [cli.EXIT_PASS, buf.getvalue()]
    kv = bessel.bessel_k(KV_ORDER, np.linspace(0.01, 30.0, 500))
    assert result["kv"] == kv.tobytes().hex()
    assert result["radial"] == orbit.l2_radial_integral(*RADIAL_INTEGRAL).hex()


def test_scipy_imported_as_the_package_at_module_level_only():
    # scipy's module __getattr__ loads a submodule on first attribute access
    # and binds it, so later calls are plain lookups; an import inside a
    # function would cost every scalar k_ladder and quad integrand call
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
