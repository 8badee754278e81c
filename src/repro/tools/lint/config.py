"""Path-scoped rule policies.

The contracts are not uniform across the tree: ``sim/rng.py`` *is* the
one place allowed to construct generators, ``tools/perf.py`` *is* the one
injectable wall clock, and tests/benchmarks deliberately poke at the
machinery the rules guard.  Rather than littering those files with
suppression comments, each region gets a policy that disables the rules
that cannot meaningfully apply there.  Policies only ever *disable*
rules — nothing outside the registry can be enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch

from repro.tools.lint.core import RULES, Rule

#: Sentinel: disable every rule for the matched region.
ALL_RULES = "*"


def path_matches(relpath: str, pattern: str) -> bool:
    """``pattern`` ending in ``/`` is a directory prefix, a pattern with
    ``*`` is an ``fnmatch`` glob, anything else is an exact path."""
    if pattern.endswith("/"):
        return relpath.startswith(pattern)
    if "*" in pattern:
        return fnmatch(relpath, pattern)
    return relpath == pattern


@dataclass(frozen=True)
class PathPolicy:
    """Disable ``disable`` (rule names, or ``ALL_RULES``) under ``pattern``."""

    pattern: str
    disable: tuple[str, ...]
    reason: str


DEFAULT_POLICIES: tuple[PathPolicy, ...] = (
    PathPolicy(
        "src/repro/sim/rng.py",
        disable=("no-ambient-rng",),
        reason="the stream registry is the one module that may construct "
               "generators — every pinned stream is born here",
    ),
    PathPolicy(
        "src/repro/tools/perf.py",
        disable=("no-wall-clock",),
        reason="the one injectable wall clock — wall_timer() is where "
               "every observability timing in src/ reads real time",
    ),
    PathPolicy(
        "tests/",
        disable=(ALL_RULES,),
        reason="tests deliberately exercise the machinery the rules guard "
               "(ambient RNG fixtures, mutation probes, wall-clock stubs)",
    ),
    PathPolicy(
        "benchmarks/",
        disable=(
            "no-ambient-rng",
            "no-wall-clock",
            "no-unordered-iteration",
            "inplace-op-discipline",
        ),
        reason="benchmarks pin literal seeds and measure wall clock; the "
               "snapshot and report-immutability contracts still apply",
    ),
    PathPolicy(
        "examples/",
        disable=("no-ambient-rng", "no-wall-clock"),
        reason="examples pin literal seeds inline for readability",
    ),
)


def active_rules(
    relpath: str,
    selected: set[str] | None = None,
    policies: tuple[PathPolicy, ...] = DEFAULT_POLICIES,
) -> list[Rule]:
    """The rules that apply to ``relpath``, in stable name order.

    ``selected`` (from ``--rule``) narrows the candidate set; policies
    and per-rule default path scopes then filter it.
    """
    disabled: set[str] = set()
    for policy in policies:
        if path_matches(relpath, policy.pattern):
            disabled.update(policy.disable)
    if ALL_RULES in disabled:
        return []
    out: list[Rule] = []
    for name in sorted(RULES):
        if selected is not None and name not in selected:
            continue
        if name in disabled:
            continue
        rule = RULES[name]
        if rule.paths is not None and not any(
            path_matches(relpath, p) for p in rule.paths
        ):
            continue
        out.append(rule)
    return out
