"""The traced benchmark run wraps library functions by name: every function
``perfbench/spans.py`` lists in ``TRACED`` or imports from the library must
still exist, or ``Recorder.install`` fails with an AttributeError and a
``--trace 1`` run dies.  The workloads and the traced entry scripts call the
library by name too, and their checks read fields of its results.  The run
also reads the rule caches' counters, and its ``cli`` workload runs fixed
command lines that the parser must accept."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
CALLERS = ("workloads.py", "traced.py", "cli_child.py")


def _named_functions():
    tree = ast.parse(SPANS.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("onsager_ms."):
            names.update((node.module.removeprefix("onsager_ms."), a.name) for a in node.names)
    return names


def test_benchmark_traced_functions_exist():
    names = _named_functions()
    assert ("equilibrium", "sphere_order_for") in names
    assert len(names) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(names)
        if not callable(getattr(importlib.import_module(f"onsager_ms.{module}"), attr, None))
    ]
    assert not missing


def _library_reads(path):
    """(module, name) of every name ``path`` imports from the library and of
    every attribute it reads on a library module bound to an alias."""
    tree = ast.parse(path.read_text())
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "onsager_ms":
            for a in node.names:
                reads.add((node.module, a.name))
                if node.module == "onsager_ms":  # a submodule
                    aliases[a.asname or a.name] = f"onsager_ms.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "onsager_ms" and a.asname:
                    aliases[a.asname] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def test_benchmark_library_calls_exist():
    """Every library name the workloads and the traced entry scripts import, and
    every attribute they read on a library module alias, exists."""
    reads = set()
    for name in CALLERS:
        reads |= _library_reads(PERFBENCH / name)
    assert {
        ("onsager_ms.stability", "assemble_sphere_function"),
        ("onsager_ms.equilibrium", "eigenvalue_structure"),
        ("onsager_ms.sigma", "sample"),
        ("onsager_ms.cli", "main"),
    } <= reads
    missing = sorted(
        f"{module}.{attr}" for module, attr in reads if not hasattr(importlib.import_module(module), attr)
    )
    assert not missing


def test_rule_caches_expose_the_counters_the_trace_reads():
    """``perfbench/traced.py`` and ``cli_child.py`` count calls as hits +
    misses of ``theta_rule`` and misses of ``sphere_rule``.  The theta key
    (5, 3, 19) has 2k > n, so its first call also looks up, and here
    builds, its partner (5, 2, 19)."""
    from onsager_ms.quadrature import polar_rule, sphere_rule, theta_rule

    for accessor, key, partners in ((theta_rule, (5, 3, 19), 1), (sphere_rule, (2, 19), 0)):
        before = accessor.cache_info()
        accessor(*key)
        accessor(*key)
        after = accessor.cache_info()
        assert after.misses == before.misses + 1 + partners
        assert after.hits == before.hits + 1
    assert callable(polar_rule.__wrapped__)


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_cli_workload_argvs_parse(monkeypatch):
    """Every command line of the ``cli`` workload parses, so a parser change
    cannot turn its jobs into usage errors."""
    from onsager_ms.cli import build_parser

    workloads = _workloads(monkeypatch)
    parser = build_parser()
    subcommands = set()
    for seed in range(1, 11):
        for sub, args, _ in workloads.cli_commands(seed):
            assert parser.parse_args([sub, *args]).command == sub
            subcommands.add(sub)
    assert len(subcommands) == 7


def test_one_benchmark_job_of_each_kind_passes_its_check(monkeypatch):
    """The first branch, diagram and threshold job of a ``branches`` round
    and one ``low_bundle`` of a ``sphere`` round run and pass their checks,
    so a renamed or removed result field fails here, not in a benchmark run."""
    workloads = _workloads(monkeypatch)
    jobs = {}
    for job in workloads.branches_round(1) + workloads.sphere_round(1):
        jobs.setdefault(job.kind, job)
    for kind in ("branch", "diagram", "threshold", "low_bundle"):
        job = jobs[kind]
        assert job.check(job.run()) == 0, kind
