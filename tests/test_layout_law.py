"""The layout law: ``src/`` is what a fleet runs.

Walks the import graph of ``src/repro`` with ``ast`` from the four fleet
roots — ``system/{fleet,builder,lifecycle,faults}.py`` — following every
``import`` statement, function-local ones included.  Every module must be
reached, or be on ``ALLOWED`` with the reason it stays in ``src/``.  An
allowlisted module that a root comes to reach, or that no longer exists,
fails too, so the list only ever names what it has to.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOTS = (
    "repro.system.fleet",
    "repro.system.builder",
    "repro.system.lifecycle",
    "repro.system.faults",
)

PACKAGE = "a package __init__: re-exports the public names; no module imports it"
LINTER = "repro-lint, the AST linter CI and tests/tools run over the tree"
TOOLS = "the Sec. 7 model-engineer tools that examples/model_engineer_workflow.py runs"
SEC8 = "the Sec. 8 workloads, baselines and metrics that the examples and benchmarks run"

#: Modules no fleet root reaches, each with why it stays in ``src/``.
ALLOWED = {
    "repro": PACKAGE,
    "repro.actors": PACKAGE,
    "repro.analytics": PACKAGE,
    "repro.baselines": PACKAGE,
    "repro.core": PACKAGE,
    "repro.data": PACKAGE,
    "repro.device": PACKAGE,
    "repro.nn": PACKAGE,
    "repro.secagg": PACKAGE,
    "repro.sim": PACKAGE,
    "repro.system": PACKAGE,
    "repro.tools": PACKAGE,
    "repro.tools.lint": LINTER,
    "repro.tools.lint.__main__": LINTER,
    "repro.tools.lint.cli": LINTER,
    "repro.tools.lint.config": LINTER,
    "repro.tools.lint.core": LINTER,
    "repro.tools.lint.rules": LINTER,
    "repro.tools.lint.rules.ambient_rng": LINTER,
    "repro.tools.lint.rules.fleet_walk": LINTER,
    "repro.tools.lint.rules.inplace_discipline": LINTER,
    "repro.tools.lint.rules.report_immutability": LINTER,
    "repro.tools.lint.rules.snapshot_state": LINTER,
    "repro.tools.lint.rules.unordered_iteration": LINTER,
    "repro.tools.lint.rules.wall_clock": LINTER,
    "repro.tools.lint.runner": LINTER,
    "repro.tools.deployment": TOOLS,
    "repro.tools.modeling": TOOLS,
    "repro.tools.simulation": TOOLS,
    "repro.data.keyboard": SEC8,
    "repro.data.partition": SEC8,
    "repro.baselines.central": SEC8,
    "repro.baselines.ngram": SEC8,
    "repro.nn.metrics": SEC8,
    "repro.federated_analytics": "Sec. 5's federated analytics; examples/federated_analytics.py runs it",
}


def module_files() -> dict[str, Path]:
    files = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return files


def imported(name: str, files: dict[str, Path]):
    """The ``src/`` modules one module's import statements name: a
    ``from package import name`` is the submodule when there is one, else
    the package."""
    for node in ast.walk(ast.parse(files[name].read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in files)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}: a relative import the walk does not follow"
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if sub in files:
                    yield sub
                elif node.module in files:
                    yield node.module


def reached(files: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    stack = list(ROOTS)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(imported(name, files))
    return seen


def test_every_module_is_reached_from_a_fleet_root_or_allowed():
    files = module_files()
    stray = sorted(set(files) - reached(files) - set(ALLOWED))
    assert not stray, f"no fleet runs these; delete them, move them to their caller, or allow them: {stray}"


def test_the_allowlist_names_only_existing_unreached_modules():
    files = module_files()
    assert not set(ALLOWED) - set(files), "allowlisted modules that no longer exist"
    assert not set(ALLOWED) & reached(files), "allowlisted modules a fleet root now reaches"
