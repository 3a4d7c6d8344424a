"""Atomic-unit conversions for field strengths and times.

Everything inside the package is computed in Hartree atomic units
(e = m_e = hbar = 1).  Conversions happen only at input/output boundaries.
Constants follow CODATA 2018.
"""

from __future__ import annotations

from .errors import UnitError

# 1 atomic unit of time in seconds (hbar / E_h).
AU_TIME_S = 2.4188843265857e-17
# 1 atomic unit of electric field in V/m (E_h / (e * a_0)).
AU_FIELD_V_PER_M = 5.14220674763e11

_TIME_TO_AU = {
    "au": 1.0,
    "s": 1.0 / AU_TIME_S,
    "as": 1e-18 / AU_TIME_S,
    "fs": 1e-15 / AU_TIME_S,
    "ps": 1e-12 / AU_TIME_S,
}

_FIELD_TO_AU = {
    "au": 1.0,
    "V/m": 1.0 / AU_FIELD_V_PER_M,
    "V/cm": 1e2 / AU_FIELD_V_PER_M,
    "kV/cm": 1e5 / AU_FIELD_V_PER_M,
    "MV/cm": 1e8 / AU_FIELD_V_PER_M,
}

# Unitless passthrough, used by the manifest parser for bare numbers.
_DIMENSIONLESS = {"1": 1.0, "": 1.0}


def _family(unit: str) -> dict[str, float]:
    for table in (_TIME_TO_AU, _FIELD_TO_AU, _DIMENSIONLESS):
        if unit in table:
            return table
    raise UnitError(f"unknown unit {unit!r}")


def field_units(value: float, from_unit: str, to_unit: str) -> float:
    """Convert `value` between field units (kV/cm etc.) or time units (fs, ps).

    Both units must belong to the same family.  Atomic units are spelled
    "au" in either family.
    """
    table = _family(from_unit)
    if to_unit not in table:
        # "au" is ambiguous on its own; resolve it against the other unit.
        if from_unit == "au":
            table = _family(to_unit)
        else:
            raise UnitError(
                f"cannot convert {from_unit!r} to {to_unit!r}: different unit families"
            )
    return value * table[from_unit] / table[to_unit]


def parse_quantity(raw: float | int | str, family: str) -> float:
    """Parse a manifest value into atomic units.

    Bare numbers are taken to be atomic units already.  Strings carry an
    explicit unit, e.g. ``"8 ps"`` or ``"1 kV/cm"``.  `family` is "time" or
    "field" and guards against unit-family mixups in manifests.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if not isinstance(raw, str):
        raise UnitError(f"cannot parse quantity from {raw!r}")
    parts = raw.split()
    if len(parts) not in (1, 2):
        raise UnitError(f"cannot parse quantity from {raw!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise UnitError(f"cannot parse quantity from {raw!r}") from exc
    if len(parts) == 1:
        return value
    unit = parts[1]
    table = {"time": _TIME_TO_AU, "field": _FIELD_TO_AU}.get(family)
    if table is None:
        raise UnitError(f"unknown unit family {family!r}")
    if unit not in table:
        raise UnitError(f"{unit!r} is not a recognized {family} unit")
    return value * table[unit]
