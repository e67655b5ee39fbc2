"""Human-friendly unit parsing for bandwidths and durations."""

from __future__ import annotations

_BW_SUFFIX = {"bps": 1, "kbps": 10**3, "mbps": 10**6, "gbps": 10**9, "tbps": 10**12}
_DUR_SUFFIX = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}


def parse_bandwidth(text) -> int:
    """'100kbps' / '10Gbps' / plain integers -> bits per second."""
    if isinstance(text, (int, float)):
        return int(text)
    t = text.strip().lower().replace(" ", "")
    for suffix in sorted(_BW_SUFFIX, key=len, reverse=True):
        if t.endswith(suffix):
            return int(float(t[: -len(suffix)]) * _BW_SUFFIX[suffix])
    return int(float(t))


def parse_duration(text) -> int:
    """'500ms' / '10s' / plain integers (ns) -> nanoseconds."""
    if isinstance(text, (int, float)):
        return int(text)
    t = text.strip().lower().replace(" ", "")
    for suffix in sorted(_DUR_SUFFIX, key=len, reverse=True):
        if t.endswith(suffix):
            return int(float(t[: -len(suffix)]) * _DUR_SUFFIX[suffix])
    return int(float(t))

