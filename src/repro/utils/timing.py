"""Duration formatting for the profile tables."""

from __future__ import annotations

__all__ = ["format_duration"]


def format_duration(seconds: float) -> str:
    """Render a duration in the most natural unit (us / ms / s / min / h).

    The unit is picked from the value as rounded for display, so a value
    just under a unit boundary prints as ``1.00ms`` or ``2m00.0s`` rather
    than ``1000.0us`` or ``1m60.0s``.
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if round(seconds * 1e6, 1) < 1e3:
        return f"{seconds * 1e6:.1f}us"
    if round(seconds * 1e3, 2) < 1e3:
        return f"{seconds * 1e3:.2f}ms"
    if round(seconds, 2) < 60.0:
        return f"{seconds:.2f}s"
    tenths = round(seconds * 10)
    if tenths < 36000:
        minutes, rem = divmod(tenths, 600)
        return f"{minutes}m{rem / 10:04.1f}s"
    hours, minutes = divmod(tenths // 600, 60)
    return f"{hours}h{minutes}m"
