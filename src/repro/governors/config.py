"""Parsing and canonicalisation of governor configuration strings.

A *config string* names one frequency configuration of the study:

* ``ondemand`` — a registered governor with its stock tunables,
* ``fixed:960000`` — the userspace governor pinned at an OPP,
* ``qoe_aware:boost=1_036_800,settle=40000`` — a governor with
  parameter overrides, written as comma-separated ``key=value`` pairs.

Parameter keys are the short aliases each governor declares in its
``config_params`` mapping (see :mod:`repro.governors.base`); values are
integers and may use ``_`` digit separators.  :func:`canonical_config`
normalises a string — parameters sorted by key, separators stripped — so
that every spelling of the same configuration maps to one cache cell and
one RNG stream.  The config string is the only way to parameterise a
governor wherever a configuration is named (``replay_run``, the fleet's
``RunSpec``, ``sweep --config``, the explorer), so the RNG fork and the
cache key see every parameter.

This module is deliberately free of simulator imports: the fleet layer
and the design-space explorer both canonicalise config strings without
pulling in devices or governors.
"""

from __future__ import annotations

from repro.core.errors import GovernorError


def parse_config(config: str) -> tuple[str, dict[str, int]]:
    """Split a config string into ``(base_name, parameters)``.

    ``fixed:<khz>`` yields ``("fixed", {"khz": <khz>})``; any other
    parameterized string yields its governor name and the parsed
    ``key=value`` pairs.  Raises :class:`GovernorError` with a one-line
    message for every malformed spelling.
    """
    if not isinstance(config, str) or not config.strip():
        raise GovernorError(f"empty governor config {config!r}")
    config = config.strip()
    base, sep, param_text = config.partition(":")
    base = base.strip()
    if not base:
        raise GovernorError(f"config {config!r} has no governor name")
    if not sep:
        if base == "fixed":
            raise GovernorError(
                "config 'fixed' needs a frequency, e.g. fixed:960000"
            )
        return base, {}
    if base == "fixed":
        try:
            khz = int(param_text)
        except ValueError:
            raise GovernorError(
                f"config {config!r}: fixed takes one integer frequency "
                f"in kHz, got {param_text!r}"
            ) from None
        return base, {"khz": khz}
    if not param_text:
        raise GovernorError(f"config {config!r} has a ':' but no parameters")
    params: dict[str, int] = {}
    for pair in param_text.split(","):
        key, eq, value_text = pair.partition("=")
        key = key.strip()
        if not eq or not key or not value_text.strip():
            raise GovernorError(
                f"config {config!r}: malformed parameter {pair!r} "
                "(expected key=value)"
            )
        try:
            value = int(value_text)
        except ValueError:
            raise GovernorError(
                f"config {config!r}: parameter {key!r} needs an integer "
                f"value, got {value_text.strip()!r}"
            ) from None
        if key in params:
            raise GovernorError(
                f"config {config!r}: duplicate parameter {key!r}"
            )
        params[key] = value
    return base, params


def format_config(base: str, params: dict[str, int] | None = None) -> str:
    """The canonical spelling of ``(base, params)``."""
    if not params:
        return base
    if base == "fixed":
        return f"fixed:{params['khz']}"
    pairs = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{base}:{pairs}"


def canonical_config(config: str) -> str:
    """Normalise a config string: sorted parameters, no ``_`` separators."""
    return format_config(*parse_config(config))
