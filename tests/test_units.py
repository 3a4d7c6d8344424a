import math

import pytest

from rydoct import UnitError, parse_quantity


def test_kv_per_cm_to_atomic():
    # CODATA field constant: 1 au = 5.1422e6 kV/cm.
    assert parse_quantity("1 kV/cm", "field") == pytest.approx(1.9447e-7, rel=1e-4)
    assert 1.0 / parse_quantity("1 kV/cm", "field") == pytest.approx(5.1422e6, rel=1e-4)


def test_atomic_time_in_attoseconds():
    assert 1.0 / parse_quantity("1 as", "time") == pytest.approx(24.18884, rel=1e-6)
    assert parse_quantity("10 fs", "time") == pytest.approx(413.4137, rel=1e-6)


def test_zero_converts_to_zero():
    assert parse_quantity("0 kV/cm", "field") == 0.0
    assert parse_quantity("0 ps", "time") == 0.0


def test_unknown_unit_raises():
    with pytest.raises(UnitError):
        parse_quantity("1 furlongs", "time")
    with pytest.raises(UnitError):
        parse_quantity("1 parsec", "field")


def test_cross_family_raises():
    with pytest.raises(UnitError):
        parse_quantity("1 kV/cm", "time")
    with pytest.raises(UnitError):
        parse_quantity("1 fs", "field")


def test_parse_quantity_strings():
    assert parse_quantity("8 ps", "time") == pytest.approx(8e-12 / 2.4188843265857e-17)
    assert parse_quantity("1 kV/cm", "field") == pytest.approx(1e5 / 5.14220674763e11)


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
    assert parse_quantity("1 kV/cm", "field") == pytest.approx(1e5 / 5.14220674763e11, rel=1e-12)
    assert math.isclose(parse_quantity("1 s", "time"), 1.0 / 2.4188843265857e-17)
