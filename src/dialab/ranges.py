"""The interval each numeric config field declares next to its default, in
the usual notation (``[0, 1)``, ``(0, inf]``; NaN lies in none), the values
each scalar field's type takes, the one rule that checks them, and the
error every config record raises."""

from dataclasses import MISSING, field, fields
from numbers import Integral, Real


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration. A config record's
    message begins with the field at fault; the config reader prefixes the
    record's section."""


# the values a scalar field takes, by its annotation as written (the
# records postpone their annotations), and their wording; a bool is none
SCALAR_TYPES = {"int": ((Integral,), "an integer"),
                "float": ((Real,), "a number"),
                "str": ((str,), "a string"),
                "str | None": ((str, type(None)), "a string or null")}


def bounded(interval: str, default=MISSING, *, factory=MISSING):
    """A record field whose values lie in ``interval``; a field given a
    ``factory`` holds a mapping, and its values lie there."""
    return field(default=default, default_factory=factory,
                 metadata={"range": interval})


def check(name: str, value, interval: str):
    """``value``, unless it is no number or lies outside ``interval``: then
    a ConfigError ``<name>=<value> must be ...``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name}={value!r} must be a number")
    low, high = map(float, interval[1:-1].split(","))
    if not ((low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high)):
        raise ConfigError(f"{name}={value} must be in {interval}")
    return value


def check_ranges(record) -> None:
    """Check each field of ``record`` against its type if it is a scalar's,
    then against its interval if it declares one, each value of a
    mapping."""
    for f in fields(record):
        interval, value = f.metadata.get("range"), getattr(record, f.name)
        types, kind = SCALAR_TYPES.get(f.type, (None, None))
        if types and (isinstance(value, bool)
                      or not isinstance(value, types)):
            raise ConfigError(f"{f.name}={value!r} must be {kind}")
        if interval and f.default_factory is not MISSING:
            if not isinstance(value, dict):
                raise ConfigError(f"{f.name}={value!r} must be a mapping")
            for key, v in value.items():
                check(f"{f.name}[{key}]", v, interval)
        elif interval:
            check(f.name, value, interval)
