"""inplace-op-discipline: ``*_`` ops stay allocation-free on the hot path.

The stacked model plane's whole point (ROADMAP "Performance") is that
the trailing-underscore in-place ops (``add_``, ``step_stack_``,
``scale_rows_``, ...) run on pre-allocated buffers.  An allocating
``np.*`` call inside one silently re-introduces the per-step allocation
the plane exists to remove.  Three clauses:

* inside any function whose name ends with a single ``_``: no numpy
  allocator calls (``np.zeros``, ``np.concatenate``, ...), no
  out-capable numpy ufunc/linalg calls without ``out=``, no ``.copy()``;
* inside the hot-path modules (``nn/``, ``device/cohort.py``,
  ``actors/aggregator*.py``, ``secagg/``): no ``.to_vector()`` without
  ``out=`` — the no-``out`` form returns freshly-owned storage by
  contract, which is exactly one hidden allocation per call.  The
  vectorized SecAgg plane sits on this hot path: its stacked mask/commit
  kernels are ``*_``-named, so the first clause polices them too;
* inside ``secagg/bigmod.py`` (the 2^255−19 limb plane): no
  ``dtype=object`` arrays or ``.astype(object)`` outside the declared
  ``_to_*`` / ``_from_*`` boundary helpers — an object-dtype array
  silently falls back to per-element Python big-int arithmetic, which
  is exactly the cost the uint64 limb representation removes.

Scalar reductions (``np.sum``, ``np.dot`` on vectors, ``l2_norm``) are
deliberately not flagged: their results are scalars, not hot-path
arrays.
"""

from __future__ import annotations

import ast

from repro.tools.lint.core import FileContext, Finding, Rule, register
from repro.tools.lint.config import path_matches

_ALLOCATORS = frozenset({
    "empty", "empty_like", "zeros", "zeros_like", "ones", "ones_like",
    "full", "full_like", "array", "copy", "concatenate", "stack",
    "vstack", "hstack", "dstack", "column_stack", "tile", "repeat",
    "arange", "linspace", "eye", "identity", "outer", "kron", "pad",
})

#: Elementwise/array-producing numpy calls that accept ``out=``.
_OUT_CAPABLE = frozenset({
    "add", "subtract", "multiply", "divide", "true_divide",
    "floor_divide", "power", "sqrt", "square", "exp", "log", "abs",
    "absolute", "negative", "sign", "clip", "maximum", "minimum",
    "matmul",
})

_TO_VECTOR_PATHS = (
    "src/repro/nn/",
    "src/repro/device/cohort.py",
    "src/repro/actors/aggregator*.py",
    "src/repro/secagg/",
)

#: The 2^255−19 limb plane: object-dtype escapes allowed only in the
#: int<->limb boundary helpers.
_BIGMOD_PATH = "src/repro/secagg/bigmod.py"
_BIGMOD_BOUNDARY_PREFIXES = ("_to_", "_from_")


def _is_inplace_name(name: str) -> bool:
    return name.endswith("_") and not name.endswith("__")


@register
class InplaceDisciplineRule(Rule):
    name = "inplace-op-discipline"
    description = (
        "allocation inside a *_ in-place op, or hot-path to_vector() "
        "without out="
    )
    contract = "buffer ownership: the model plane is allocation-free"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_inplace_name(node.name):
                self._check_inplace_fn(ctx, node, findings)
        if any(path_matches(ctx.path, p) for p in _TO_VECTOR_PATHS):
            self._check_to_vector(ctx, findings)
        if path_matches(ctx.path, _BIGMOD_PATH):
            self._check_bigmod_object_dtype(ctx, findings)
        return findings

    def _check_inplace_fn(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.resolve(node.func)
            if dotted is not None and dotted.startswith("numpy."):
                tail = dotted.rsplit(".", 1)[1]
                has_out = any(kw.arg == "out" for kw in node.keywords)
                if tail in _ALLOCATORS:
                    findings.append(self.finding(
                        ctx, node,
                        f"np.{tail}() allocates inside in-place op "
                        f"{fn.name!r} — write into a caller-provided or "
                        "pre-allocated buffer",
                    ))
                elif tail in _OUT_CAPABLE and not has_out:
                    findings.append(self.finding(
                        ctx, node,
                        f"np.{tail}() without out= allocates inside "
                        f"in-place op {fn.name!r} — pass out=<owned buffer>",
                    ))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "copy"
                and not node.args
                and not node.keywords
            ):
                findings.append(self.finding(
                    ctx, node,
                    f".copy() allocates inside in-place op {fn.name!r} — "
                    "copy into a pre-allocated buffer (np.copyto)",
                ))

    def _check_bigmod_object_dtype(
        self, ctx: FileContext, findings: list[Finding]
    ) -> None:
        boundary_nodes: set[int] = set()
        for fn in ast.walk(ctx.tree):
            if isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and fn.name.startswith(_BIGMOD_BOUNDARY_PREFIXES):
                for inner in ast.walk(fn):
                    boundary_nodes.add(id(inner))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in boundary_nodes:
                continue
            if self._is_object_dtype_call(node):
                findings.append(self.finding(
                    ctx, node,
                    "object-dtype array outside a _to_*/_from_* boundary "
                    "helper — object arrays run per-element Python big-int "
                    "loops; keep the limb plane on uint64 limbs",
                ))

    @staticmethod
    def _is_object_dtype_call(node: ast.Call) -> bool:
        def is_object(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id == "object"

        if any(kw.arg == "dtype" and is_object(kw.value)
               for kw in node.keywords):
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and bool(node.args)
            and is_object(node.args[0])
        )

    def _check_to_vector(
        self, ctx: FileContext, findings: list[Finding]
    ) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "to_vector"
            ):
                continue
            if any(kw.arg == "out" for kw in node.keywords):
                continue
            findings.append(self.finding(
                ctx, node,
                "to_vector() without out= returns freshly-owned storage — "
                "one hidden allocation per call on the hot path; pass "
                "out=<owned buffer>",
            ))
