"""Declared ranges for config fields, and the one check that holds them.

A config dataclass declares a numeric field's legal range where it
declares the field — ``base_interval_s: float = positive(default=3600.0)``
is a ``dataclasses.field`` whose metadata holds the range — and its
``__post_init__`` is, or calls, :func:`check`: a bad value is refused when
the config is constructed, with a ``ValueError`` shaped ``"<field> must
be <range>, got <value>"``.  The class's own methods keep only its
cross-field rules.

Every comparison is written so that NaN fails it, and a range is finite
unless it names infinity as an end.  A :func:`count` is any
``numbers.Integral`` but ``bool``, so NaN, ±inf and fractions fail it.  A
field whose default is ``None`` admits ``None`` too.  A :func:`nested`
field holds a config, ``None`` or a tuple or list of configs; :func:`check`
re-runs each one's ``__post_init__``, cross-field rules included, which is
how a mutable config changed after construction is checked again.  Each
class's check is compiled once, from its declared fields, and replaces a
``__post_init__`` that is :func:`check` itself.  This module imports
nothing from :mod:`repro`.
"""

from __future__ import annotations

import dataclasses
import math
from numbers import Integral
from typing import Any, Callable, NamedTuple

_KEY = "bounds"
_NESTED = "nested"


class _Range(NamedTuple):
    """``[lo, hi]``: an open end is stored as the nearest float inside it,
    so one chained comparison tests either kind."""

    lo: float
    hi: float
    text: str
    integral: bool = False
    optional: bool = False


def _field(bound: _Range, **default: Any) -> Any:
    """A dataclass field declared in ``bound``; ``default`` is the
    ``default=`` or ``default_factory=`` argument, if any."""
    if default.get("default", dataclasses.MISSING) is None:
        bound = bound._replace(text=f"None or {bound.text}", optional=True)
    return dataclasses.field(metadata={_KEY: bound}, **default)


def interval(spec: str, text: str = "", **default: Any) -> Any:
    """A number in ``spec``, written as in mathematics — ``"(0, 1]"``,
    ``"[1, inf)"``: a bracket is a closed end, a parenthesis an open one."""
    lo, hi = (float(end) for end in spec[1:-1].split(","))
    if spec[0] == "(":
        lo = math.nextafter(lo, math.inf)
    if spec[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return _field(_Range(lo, hi, text or f"in {spec}"), **default)


def positive(**default: Any) -> Any:
    return interval("(0, inf)", "finite and > 0", **default)


def non_negative(**default: Any) -> Any:
    return interval("[0, inf)", "finite and >= 0", **default)


def probability(**default: Any) -> Any:
    return interval("[0, 1]", **default)


def finite(**default: Any) -> Any:
    return interval("(-inf, inf)", "finite", **default)


def count(lo: int, hi: float = math.inf, **default: Any) -> Any:
    """An integer ``>= lo`` (and ``<= hi``)."""
    text = f"an integer in [{lo}, {hi}]" if hi < math.inf else f"an integer >= {lo}"
    return _field(_Range(lo, hi, text, integral=True), **default)


def nested(**default: Any) -> Any:
    """A field that holds configs."""
    return dataclasses.field(metadata={_KEY: _NESTED}, **default)


def _admits(bound: _Range, value: Any) -> bool:
    if value is None:
        return bound.optional
    if bound.integral and (isinstance(value, bool) or not isinstance(value, Integral)):
        return False
    try:
        return bound.lo <= value <= bound.hi
    except TypeError:  # not a number
        return False


def _refuse(config: Any) -> None:
    """The per-field rule, for a config the compiled test did not pass:
    raise naming the first field out of range (or return, if every field
    is in range after all: a count held in a numpy integer, say)."""
    for f in dataclasses.fields(config):
        bound = f.metadata.get(_KEY)
        if isinstance(bound, _Range) and not _admits(bound, getattr(config, f.name)):
            raise ValueError(
                f"{f.name} must be {bound.text}, got {getattr(config, f.name)!r}"
            )


def _check_nested(value: Any) -> None:
    for config in value if isinstance(value, (tuple, list)) else (value,):
        if config is not None:
            config.__post_init__()


#: Each class's check, compiled on its first call.
_checks: dict[type, Callable[[Any], None]] = {}


def _compile(cls: type) -> Callable[[Any], None]:
    """``cls``'s check, built once from its declared fields the way
    ``dataclasses`` builds ``__init__`` (a config is checked per member
    row, and a loop over a table of fields costs several times the
    comparisons): one chained comparison per range, which NaN fails, a
    count passing only as a plain ``int``; whatever fails goes to
    :func:`_refuse`; then each nested config checks itself."""
    ranges: list[_Range] = []
    tests: list[str] = []
    nested_checks: list[str] = []
    for f in dataclasses.fields(cls):
        bound = f.metadata.get(_KEY)
        if bound == _NESTED:
            nested_checks.append(f"    check_nested(c.{f.name})")
        elif bound is not None:
            i = len(ranges)
            ranges.append(bound)
            test = f"lo{i} <= c.{f.name} <= hi{i}"
            if bound.integral:
                test = f"type(c.{f.name}) is int and {test}"
            if bound.optional:
                test = f"c.{f.name} is None or {test}"
            tests.append(f"({test})")
    args = "".join(
        f", lo{i}=ranges[{i}].lo, hi{i}=ranges[{i}].hi" for i in range(len(ranges))
    )
    source = "\n".join([
        f"def check(c{args}):",
        "    try:",
        f"        if not ({' and '.join(tests) or 'True'}):",
        "            refuse(c)",
        "    except TypeError:  # not a number",
        "        refuse(c)",
        *nested_checks,
    ])
    namespace = {"ranges": ranges, "refuse": _refuse, "check_nested": _check_nested}
    exec(source, namespace)
    compiled = _checks[cls] = namespace["check"]
    # A class whose whole ``__post_init__`` is :func:`check` runs its
    # compiled check directly from now on, without the lookup.
    if vars(cls).get("__post_init__") is check:
        cls.__post_init__ = compiled
    return compiled


def check(config: Any) -> None:
    """Refuse ``config`` unless every declared field of it is in range,
    nested configs included (each by its own ``__post_init__``)."""
    (_checks.get(type(config)) or _compile(type(config)))(config)
