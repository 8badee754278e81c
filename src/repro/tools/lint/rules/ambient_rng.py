"""no-ambient-rng: all randomness flows through pinned named streams.

Same seed ⇒ byte-identical ``RunReport``s holds only because every draw
comes from a named, pinned ``np.random.Generator``
(:class:`repro.sim.rng.RngRegistry`).  Three things silently break that:

* numpy's *global-state* convenience API (``np.random.rand``,
  ``np.random.seed``, ...) — one hidden global stream, perturbed by any
  other caller;
* the stdlib ``random`` module — a second hidden global stream;
* ``np.random.default_rng(...)`` outside the registry — even seeded, it
  creates an off-registry stream whose draws are invisible to the
  stream-discipline the ablation benchmarks rely on.

Explicitly *keyed* bit-generator construction
(``np.random.Generator(np.random.Philox(key=...))``) is allowed: the
SecAgg PRG derives generators from wire-carried seeds, which is pinned
by construction.
"""

from __future__ import annotations

import ast

from repro.tools.lint.core import FileContext, Finding, Rule, register

#: numpy.random module-level functions backed by the hidden global
#: RandomState (the legacy convenience API).
_NUMPY_GLOBAL_STATE = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull",
    "zipf",
})


@register
class AmbientRngRule(Rule):
    name = "no-ambient-rng"
    description = (
        "ambient RNG state (np.random.* global calls, stdlib random, "
        "off-registry default_rng) outside sim/rng.py"
    )
    contract = "determinism: same seed ⇒ byte-identical RunReports"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.resolve(node.func)
            if dotted is None:
                continue
            if dotted == "numpy.random.default_rng":
                findings.append(self.finding(
                    ctx, node,
                    "off-registry np.random.default_rng() — take a pinned "
                    "named stream from RngRegistry.stream(...) instead",
                ))
            elif dotted == "numpy.random.RandomState":
                findings.append(self.finding(
                    ctx, node,
                    "legacy np.random.RandomState — take a pinned named "
                    "stream from RngRegistry.stream(...) instead",
                ))
            elif (
                dotted.startswith("numpy.random.")
                and dotted.rsplit(".", 1)[1] in _NUMPY_GLOBAL_STATE
            ):
                findings.append(self.finding(
                    ctx, node,
                    f"np.random.{dotted.rsplit('.', 1)[1]}() draws from "
                    "numpy's hidden global stream — draw from a pinned "
                    "named stream instead",
                ))
            elif dotted.startswith("random."):
                findings.append(self.finding(
                    ctx, node,
                    f"stdlib {dotted}() draws from a process-global stream "
                    "— draw from a pinned numpy stream instead",
                ))
        return findings
