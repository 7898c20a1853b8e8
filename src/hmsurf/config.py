"""Run configuration: mode, strictness, precision, output format.

Sources, in increasing precedence: built-in defaults, a key=value config
file, then explicit CLI flags.
"""

from __future__ import annotations

from .ntheory import Frozen
from .numeric import MIN_PRECISION_BITS, PrecisionError, check_precision

MODES = ("exact", "bound")
FORMATS = ("json", "csv", "pretty")


class ConfigError(ValueError):
    pass


class RunConfig(Frozen):
    __slots__ = ("mode", "strict_n", "precision_bits", "output")
    mode: str
    strict_n: bool
    precision_bits: int
    output: str

    def __init__(self, mode: str = "exact", strict_n: bool = False,
                 precision_bits: int = MIN_PRECISION_BITS, output: str = "json"):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if output not in FORMATS:
            raise ConfigError(f"output must be one of {FORMATS}, got {output!r}")
        if not isinstance(precision_bits, int) or isinstance(precision_bits, bool):
            raise ConfigError("precision_bits must be an integer")
        try:
            check_precision(precision_bits)
        except PrecisionError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(strict_n, bool):
            raise ConfigError("strict_n must be a boolean")
        self._set(mode, strict_n, precision_bits, output)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


_PARSERS = {
    "mode": str.strip,
    "strict_n": _parse_bool,
    "precision_bits": lambda s: int(s.strip(), 10),
    "output": str.strip,
}


def parse_config_lines(lines) -> dict:
    """key=value lines, '#' comments and blanks allowed."""
    fields = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        try:
            fields[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {exc}") from exc
    return fields


def load_config(path: "str | None" = None) -> RunConfig:
    fields = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            fields = parse_config_lines(fh)
    return RunConfig(**fields)
