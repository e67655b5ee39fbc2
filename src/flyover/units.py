"""Human-friendly unit parsing for bandwidths and durations."""

from __future__ import annotations

import re

_BW_SUFFIX = {"bps": 1, "kbps": 10**3, "mbps": 10**6, "gbps": 10**9, "tbps": 10**12}
_DUR_SUFFIX = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}
# a decimal number: sign, digits before and after the point, exponent; the
# exponent's three digits bound the size of its exact value
_DECIMAL = re.compile(r"([+-]?)(\d*)\.?(\d*)(?:e([+-]?\d{1,3}))?")


def _parse(text, suffixes: dict[str, int]) -> int:
    """A number, or a string of a number with one of ``suffixes``, read
    exactly (a float by its shortest repr), scaled and floored to a whole
    unit: a TypeError for anything else (``true`` included), a ValueError
    for what is not a finite decimal number."""
    if type(text) not in (int, float, str):
        raise TypeError(f"expected a number or a string with a unit, got {text!r}")
    t = repr(text) if type(text) is float else str(text).strip().lower().replace(" ", "")
    scale = 1
    for suffix in sorted(suffixes, key=len, reverse=True):
        if t.endswith(suffix):
            t, scale = t[: -len(suffix)], suffixes[suffix]
            break
    m = _DECIMAL.fullmatch(t)
    if m is None or not (m[2] or m[3]):
        raise ValueError(f"expected a finite decimal number, got {text!r}")
    # the value is digits * 10**shift; a negative shift floors
    digits = int(m[1] + m[2] + m[3]) * scale
    shift = int(m[4] or 0) - len(m[3])
    return digits * 10**shift if shift >= 0 else digits // 10**-shift


def parse_bandwidth(text) -> int:
    """'100kbps' / '10Gbps' / plain integers -> bits per second."""
    return _parse(text, _BW_SUFFIX)


def parse_duration(text) -> int:
    """'500ms' / '10s' / plain integers (ns) -> nanoseconds."""
    return _parse(text, _DUR_SUFFIX)
