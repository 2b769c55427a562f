"""The package surface: the names cdalg exports and what importing it loads."""

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


def test_package_import_leaves_suites_and_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cdalg; print(sorted(m for m in sys.modules"
         " if m in ('cdalg.suites', 'cdalg.cli')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

