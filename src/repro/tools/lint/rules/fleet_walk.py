"""no-fleet-walk: nothing in the simulator — or in an example — walks
``fleet.devices`` or ``fleet.profiles``.

A device is only a row of the idle plane's
columns outside a session (``repro.device.table``): a 50k-device fleet
with 100 devices in a session holds 100 ``DeviceActor``s.  Iterating the
device table constructs one for every row — a look, built and retired —
so one such loop costs an object's work per row, silently, and the run
still reports the same bytes.  The profile table is columns too, and
iterating it builds a ``DeviceProfile`` per row.  Code that needs every
device's *numbers* reads the plane's columns, ``devices.rows()`` (which
looks without constructing) or ``profiles.column(name)``; a deliberate
walk carries ``# repro-lint: allow(no-fleet-walk)`` and says why (none in
``src/`` does).
"""

from __future__ import annotations

import ast

from repro.tools.lint.core import FileContext, Finding, Rule, register

#: Builtins that consume their argument's whole iteration.
_WALKERS = frozenset({
    "list", "tuple", "set", "frozenset", "sorted", "sum", "min", "max",
    "any", "all", "iter", "enumerate", "zip", "map", "filter", "reversed",
})

#: The fleet's row tables, and what walking each one does instead.
_TABLES = {
    "devices": (
        "walking .devices constructs a DeviceActor for every row of the "
        "fleet — read the idle plane's columns or devices.rows() instead"
    ),
    "profiles": (
        "walking .profiles builds a DeviceProfile for every row of the "
        "fleet — read the field's profiles.column(name) instead"
    ),
}


@register
class FleetWalkRule(Rule):
    name = "no-fleet-walk"
    description = (
        "iterating, list()-ing, sum()-ing or comprehending over a .devices "
        "or .profiles attribute (builds an object per row)"
    )
    contract = "scale: resident objects follow the live set, not the fleet"
    paths = (
        "src/repro/sim/",
        "src/repro/actors/",
        "src/repro/system/",
        "src/repro/device/",
        # What a reader copies: an example reads ``devices.rows()`` or
        # indexes the members it means (``fleet.members_of(name)``).
        "examples/",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                walked = [node.iter]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in _WALKERS:
                walked = node.args
            elif isinstance(node, ast.Starred):
                walked = [node.value]
            else:
                continue
            for target in walked:
                if isinstance(target, ast.Attribute) and target.attr in _TABLES:
                    findings.append(
                        self.finding(ctx, target, _TABLES[target.attr])
                    )
        return findings
