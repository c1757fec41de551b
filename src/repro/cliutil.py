"""Shared helpers for the hand-rolled subcommand CLIs.

The subcommand CLIs (``repro scenarios``, ``traces``, ``profile``,
``serve``) parse a small flag vocabulary by mutating the argument list
in place; these helpers are the one copy of that logic.
"""

from __future__ import annotations

from typing import Callable, List, Optional


def pop_option(
    args: List[str], flag: str, default: Optional[str] = None
) -> Optional[str]:
    """Extract ``--flag VALUE`` / ``--flag=VALUE`` (single occurrence).

    Returns ``default`` when the flag is absent.
    """
    for i, arg in enumerate(args):
        if arg == flag:
            if i + 1 >= len(args):
                raise SystemExit(f"{flag} requires a value")
            value = args[i + 1]
            del args[i : i + 2]
            return value
        if arg.startswith(flag + "="):
            del args[i]
            return arg.split("=", 1)[1]
    return default


def pop_number(
    args: List[str],
    flag: str,
    kind: Callable[[str], float] = float,
    default: Optional[float] = None,
) -> Optional[float]:
    """:func:`pop_option`, parsed as ``int`` or ``float``.

    Returns ``default`` when the flag is absent.  A value that does not
    parse exits with ``FLAG expects an integer (or a number), got
    'VALUE'`` instead of a ``ValueError`` traceback.
    """
    value = pop_option(args, flag)
    if value is None:
        return default
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise SystemExit(f"{flag} expects {noun}, got {value!r}")


def pop_multi(args: List[str], flag: str) -> List[str]:
    """Extract every occurrence of a repeatable ``--flag VALUE``."""
    values = []
    while True:
        value = pop_option(args, flag)
        if value is None:
            return values
        values.append(value)
