"""Unit parsing: exact decimal values, floored to whole bps and ns."""

import pytest

from flyover.units import parse_bandwidth, parse_duration


def test_decimal_text_parses_exactly():
    assert parse_bandwidth("4.1Mbps") == 4_100_000
    assert parse_bandwidth(" 10 Gbps") == 10**10
    assert parse_duration("1.001s") == 1_001_000_000
    assert [parse_duration(f"{ms / 1000:.3f}s") for ms in range(1, 2000)] == \
        [ms * 10**6 for ms in range(1, 2000)]
    # a JSON float is read by its shortest repr; a fraction of a unit floors
    assert parse_duration(0.1) == 0 and parse_duration(2.5e3) == 2500
    assert parse_bandwidth("0.5bps") == 0 and parse_duration("1.9999999999ns") == 1


@pytest.mark.parametrize("text", ["inf", "infGbps", "-inf", "nanms", float("inf"),
                                  float("nan"), "1/2s", "1e1000s", "", "fast"])
def test_anything_but_a_finite_decimal_is_a_value_error(text):
    with pytest.raises(ValueError):
        parse_duration(text)
    with pytest.raises(ValueError):
        parse_bandwidth(text)


@pytest.mark.parametrize("value", [True, None, [1]])
def test_anything_but_a_number_or_a_string_is_a_type_error(value):
    with pytest.raises(TypeError):
        parse_duration(value)
    with pytest.raises(TypeError):
        parse_bandwidth(value)
