"""Human-friendly unit parsing for bandwidths and durations."""

from __future__ import annotations

_BW_SUFFIX = {"bps": 1, "kbps": 10**3, "mbps": 10**6, "gbps": 10**9, "tbps": 10**12}
_DUR_SUFFIX = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}


def _parse(text, suffixes: dict[str, int]) -> int:
    """A number, or a string of a number with one of ``suffixes``; a
    TypeError for anything else (``true`` included)."""
    if type(text) in (int, float):
        return int(text)
    if type(text) is not str:
        raise TypeError(f"expected a number or a string with a unit, got {text!r}")
    t = text.strip().lower().replace(" ", "")
    for suffix in sorted(suffixes, key=len, reverse=True):
        if t.endswith(suffix):
            return int(float(t[: -len(suffix)]) * suffixes[suffix])
    return int(float(t))


def parse_bandwidth(text) -> int:
    """'100kbps' / '10Gbps' / plain integers -> bits per second."""
    return _parse(text, _BW_SUFFIX)


def parse_duration(text) -> int:
    """'500ms' / '10s' / plain integers (ns) -> nanoseconds."""
    return _parse(text, _DUR_SUFFIX)
