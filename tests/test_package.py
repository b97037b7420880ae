import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import paircomp
from paircomp.cli import main

import oracles

# the CLI module is the console entry point, not part of the library API
LIBRARY_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(paircomp.__path__) if name != "cli"
)
README = Path(__file__).resolve().parents[1] / "README.md"

# names that left the public API: deleted, or moved to the tests' oracles
DELETED = {
    "sample_to_text", "sample_from_text", "to_edge_list", "from_edge_list",
    "matrix_to_csv", "matrix_from_csv", "permutation_to_line", "permutation_from_line",
    "is_sst", "inversion_set", "row_block_average", "check_comparison_matrix", "pav_isotonic",
    "inverse_permutation", "sort_pairs",
}
MOVED = {
    "havel_hakimi", "InfeasibleDegreeSequenceError", "adjacency_matrix",
    "permute_matrix", "scores", "reverse_permutation", "inversion_table", "table_to_permutation",
}
# public names no src/ code reads, each kept on purpose
UNREFERENCED = {
    "sample_matrix": "perfbench/tracer.py looks it up by name (ROADMAP item 3)",
    "is_biso": "the biso membership reference that acceptance criterion 08 checks",
    "adversarial_pair": "the worst-case certificate that acceptance criterion 09 checks",
    "make_graph": "the one validator of outside edge lists",
}


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


def test_removed_names_are_gone_and_moved_ones_live_in_the_oracles():
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"paircomp.{name}")
        assert not (DELETED | MOVED) & set(module.__all__), name
        assert not (DELETED | MOVED) & set(vars(module)), name
    assert not (DELETED | MOVED) & set(vars(paircomp))
    for name in MOVED:
        assert getattr(oracles, name).__module__ == "oracles", name
    assert issubclass(oracles.InfeasibleDegreeSequenceError, ValueError)


def _imported_names(module) -> set[str]:
    """Absolute names of the modules, and the names in them, that module imports."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            base = importlib.util.resolve_name(base, module.__package__)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_estimators_import_nothing_from_graphs():
    # BAP reads the degrees it needs from its sample's counts, not from a Graph
    names = _imported_names(importlib.import_module("paircomp.estimators"))
    assert "paircomp.models" in names
    assert not [name for name in names if f"{name}.".startswith("paircomp.graphs.")], names


def test_observation_imports_only_graph_from_graphs():
    # the edge key, its width and its int32/int64 choice stay inside graphs
    names = _imported_names(importlib.import_module("paircomp.observation"))
    graphs = sorted(name for name in names if f"{name}.".startswith("paircomp.graphs."))
    assert graphs == ["paircomp.graphs", "paircomp.graphs.Graph"], names


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ would compare their numpy arrays field by field and raise
    def build():
        g = paircomp.make_topology("star", 6)
        model = paircomp.NoisySorting(paircomp.identity_permutation(6), 0.3)
        return (
            g,
            model,
            paircomp.observe(model, g, paircomp.identity_permutation(6), None),
            paircomp.block_partition(np.arange(6.0), 2.0, 6.0),
            paircomp.project_biso(paircomp.make_noisy_sorting(model.ranks, 0.3)),
            paircomp.adversarial_pair(g, "independent_set"),
        )

    names = ["Graph", "NoisySorting", "ObservationSample"]
    names += ["BlockPartition", "BisoProjection", "AdversarialPair"]
    for name, a, b in zip(names, build(), build(), strict=True):
        assert type(a) is getattr(paircomp, name)
        assert a == a and not a != a, name
        assert a != b and not a == b, name  # equal fields, yet two objects
        assert hash(a) == hash(a) and len({a, b}) == 2, name


def _read_names(tree: ast.AST) -> set[str]:
    """Names and attributes the code in tree reads, each outside the
    function or class that defines that name."""
    names = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return names


def test_every_public_name_is_read_in_src():
    src = Path(paircomp.__file__).parent
    read = set().union(
        *(_read_names(ast.parse(path.read_text(encoding="utf-8"))) for path in src.glob("*.py"))
    )
    public = {
        name
        for module in LIBRARY_MODULES
        for name in importlib.import_module(f"paircomp.{module}").__all__
    }
    assert sorted(public - read) == sorted(UNREFERENCED)


def _readme_section(heading: str) -> list[str]:
    """README.md's lines under heading, up to the next heading outside a code block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 1
    fenced = False
    for end in range(start, len(lines)):
        fenced ^= lines[end].startswith("```")
        if not fenced and lines[end].startswith("#"):
            return lines[start:end]
    return lines[start:]


def _ticked(text: str) -> list[str]:
    return text.split("`")[1::2]


def test_readme_public_api_lists_each_module_all():
    listed = {}
    for line in _readme_section("## Public API"):
        if line.startswith("- `paircomp."):
            module, names = line[2:].split(":", 1)
            listed[_ticked(module)[0]] = _ticked(names)
    assert listed == {
        f"paircomp.{name}": importlib.import_module(f"paircomp.{name}").__all__
        for name in LIBRARY_MODULES
    }
    removed = [
        _ticked(line)[0].partition("(")[0]
        for line in _readme_section("### Removed names")
        if line.startswith("- ")
    ]
    assert sorted(removed) == sorted(DELETED | MOVED)


def test_readme_library_sketch_runs_as_written():
    section = "\n".join(_readme_section("## Library sketch"))
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lam_line, report_line = out.getvalue().splitlines()
    assert 0.0 <= float(lam_line.split()[0]) <= 0.5
    # star on 12 vertices: alpha = 11 leaves; the complement is K_11 plus the hub, beta = 5 * 6
    assert report_line.split() == ["11", "30", str(max(11 * 10, 30) / (4 * 12**2))]


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
