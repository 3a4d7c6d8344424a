import math

import pytest
from hypothesis import given, strategies as st

from rydoct import UnitError, field_units, parse_quantity


def test_kv_per_cm_to_atomic():
    # CODATA field constant: 1 au = 5.1422e6 kV/cm.
    assert field_units(1.0, "kV/cm", "au") == pytest.approx(1.9447e-7, rel=1e-4)
    assert field_units(1.0, "au", "kV/cm") == pytest.approx(5.1422e6, rel=1e-4)


def test_atomic_time_in_attoseconds():
    assert field_units(1.0, "au", "as") == pytest.approx(24.18884, rel=1e-6)
    assert field_units(10.0, "fs", "au") == pytest.approx(413.4137, rel=1e-6)


def test_zero_converts_to_zero():
    assert field_units(0.0, "kV/cm", "au") == 0.0
    assert field_units(0.0, "ps", "au") == 0.0


@given(
    st.floats(min_value=1e-12, max_value=1e12),
    st.sampled_from(["kV/cm", "V/m", "MV/cm", "au"]),
)
def test_field_round_trip(value, unit):
    back = field_units(field_units(value, unit, "au"), "au", unit)
    assert back == pytest.approx(value, rel=1e-12)


@given(
    st.floats(min_value=1e-12, max_value=1e12),
    st.sampled_from(["fs", "ps", "as", "s", "au"]),
)
def test_time_round_trip(value, unit):
    back = field_units(field_units(value, unit, "au"), "au", unit)
    assert back == pytest.approx(value, rel=1e-12)


def test_unknown_unit_raises():
    with pytest.raises(UnitError):
        field_units(1.0, "furlongs", "au")
    with pytest.raises(UnitError):
        field_units(1.0, "au", "parsec")


def test_cross_family_raises():
    with pytest.raises(UnitError):
        field_units(1.0, "kV/cm", "fs")


def test_parse_quantity_strings():
    assert parse_quantity("8 ps", "time") == pytest.approx(field_units(8.0, "ps", "au"))
    assert parse_quantity("1 kV/cm", "field") == pytest.approx(
        field_units(1.0, "kV/cm", "au")
    )


def test_parse_quantity_bare_numbers_are_atomic_units():
    assert parse_quantity(413.4, "time") == 413.4
    assert parse_quantity(0, "field") == 0.0


def test_parse_quantity_rejects_nonsense():
    with pytest.raises(UnitError):
        parse_quantity("8 ps extra", "time")
    with pytest.raises(UnitError):
        parse_quantity("fast", "time")
    with pytest.raises(UnitError):
        parse_quantity("1 kV/cm", "time")
    with pytest.raises(UnitError, match="cannot parse quantity"):
        parse_quantity("abc ps", "time")


def test_known_constant_against_codata_ratio():
    # 1 kV/cm = 1e5 V/m over the atomic field unit.
    assert field_units(1.0, "kV/cm", "au") == pytest.approx(
        1e5 / 5.14220674763e11, rel=1e-12
    )
    assert math.isclose(field_units(1.0, "s", "au"), 1.0 / 2.4188843265857e-17)
