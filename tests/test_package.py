import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import paircomp
from paircomp.cli import main

# the CLI module is the console entry point, not part of the library API
LIBRARY_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(paircomp.__path__) if name != "cli"
)


def test_package_reexports_exactly_each_module_all():
    modules = [importlib.import_module(f"paircomp.{name}") for name in LIBRARY_MODULES]
    listed = [name for module in modules for name in module.__all__]
    exported = [
        name
        for name, value in vars(paircomp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(listed) == sorted(exported)
    for module in modules:
        for name in module.__all__:
            assert getattr(paircomp, name) is getattr(module, name), (module.__name__, name)


# Runs in a fresh interpreter: checks that importing the CLI leaves scipy
# unloaded, then runs the CLI calls listed as JSON in argv[1] with every
# scipy import refused, prints one JSON line [exit code, stdout, stderr] per
# call, and last, with imports allowed again, whether one projection loads
# any scipy module.
COLD_START = r"""
import contextlib, importlib.abc, io, json, sys

import numpy as np
import paircomp.cli

assert "scipy" not in sys.modules, "import paircomp.cli loaded scipy"


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseScipy())
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = paircomp.cli.main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
sys.meta_path.pop(0)
paircomp.project_biso(np.array([[0.5, 0.2], [0.8, 0.5]]))
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")))
"""


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_no_call_loads_scipy(tmp_path):
    ns_asp = ["simulate", "--graph", "two_cliques", "--model", "ns", "--estimator", "asp",
              "--n-list", "16,32,64", "--trials", "3", "--seed", "5"]
    csv_path = tmp_path / "ns_asp.csv"
    assert _cli([*ns_asp, "--out", str(csv_path)])[0] == 0
    calls = [
        ["diagnose", "--graph", "clique_plus_path", "--n", "14", "--json"],  # exact α and β searches
        ns_asp,
        ["slope", "--input", str(csv_path)],
        ["simulate", "--graph", "power_law", "--model", "sst", "--estimator", "bap",
         "--n-list", "8,32", "--trials", "2", "--seed", "5"],  # projections: PAV without scipy
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    *blocked, loaded = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(blocked) == len(calls)
    for argv, (code, out, _) in zip(calls, blocked):
        assert code == 0, argv
        assert (code, out) == _cli(argv)[:2], argv
    assert loaded == []


def test_cli_import_leaves_process_pools_unloaded():
    # a sweep with --workers > 1 imports them; every other call starts without
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, paircomp.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
