"""The package surface: the names cdalg exports and what importing it loads."""

import json
import subprocess
import sys

import cdalg


def test_every_exported_name_resolves():
    assert len(set(cdalg.__all__)) == len(cdalg.__all__)
    for name in cdalg.__all__:
        assert hasattr(cdalg, name), name
    namespace = {}
    exec("from cdalg import *", namespace)
    assert set(cdalg.__all__) <= set(namespace)


# Runs in a fresh interpreter and prints, after each step, which of the
# watched modules are loaded; cli.main runs in-process, its output discarded.
_IMPORT_PROBE = r"""
import contextlib, io, json, sys

WATCHED = ("cdalg.cli", "cdalg.suites", "numpy")
def loaded():
    return [m for m in WATCHED if m in sys.modules]

steps = []
import cdalg
steps.append(("import cdalg", None, loaded()))
for level in range(3, 7):
    cdalg.Element.basis(level, 1) * cdalg.Element.basis(level, 2)
steps.append(("products at levels 3-6", None, loaded()))
from cdalg import cli
for argv in (["mul", "-n", "4", "e1", "e2"],
             ["zd", "-n", "3", "e1", "e2"],
             ["ann", "-n", "4", "e1+e10"],
             ["search", "-n", "3", "--family", "basis_pairs", "--max-index", "3"],
             ["verify", "--suite", "core_identities", "-n", "4", "--trials", "1"],
             ["decompose", "-n", "4", "e1+e10"],
             ["zdf", "0,1,0,0", "0,0,1,0"]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append((argv[0], code, loaded()))
print(json.dumps(steps))
"""


def test_package_import_leaves_suites_and_cli_unloaded():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, check=True)
    exact = ["cdalg.cli", "cdalg.suites"]
    assert json.loads(proc.stdout) == [
        ["import cdalg", None, []],
        ["products at levels 3-6", None, []],
        ["mul", 0, exact],
        ["zd", 0, exact],
        ["ann", 0, exact],
        ["search", 0, exact],
        ["verify", 0, exact],
        ["decompose", 0, exact + ["numpy"]],
        ["zdf", 0, exact + ["numpy"]],
    ]
