"""The interval each numeric config field declares next to its default, in
the usual notation (``[0, 1)``, ``(0, inf]``; NaN lies in none), the one
rule that checks them, and the error every config record raises."""

from dataclasses import MISSING, field, fields


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration. A config record's
    message begins with the field at fault; the config reader prefixes the
    record's section."""


def bounded(interval: str, default=MISSING, *, factory=MISSING):
    """A record field whose values lie in ``interval``."""
    return field(default=default, default_factory=factory,
                 metadata={"range": interval})


def check(name: str, value, interval: str):
    """``value``, unless it lies outside ``interval``: then a ConfigError
    ``<name>=<value> must be in <interval>``."""
    low, high = map(float, interval[1:-1].split(","))
    if not ((low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high)):
        raise ConfigError(f"{name}={value} must be in {interval}")
    return value


def check_ranges(record) -> None:
    """Check each declared field of ``record``, each value of a mapping."""
    for f in fields(record):
        interval, value = f.metadata.get("range"), getattr(record, f.name)
        if interval and isinstance(value, dict):
            for key, v in value.items():
                check(f"{f.name}[{key}]", v, interval)
        elif interval:
            check(f.name, value, interval)
