"""Exact integers for rationals, the int->str digit limit, and the
per-object cache that keeps such integers.

Nothing here knows about spaces or models, so the credal oracle shares
it and stays an independent check.
"""

from __future__ import annotations

import math
import sys


def over_lcd(values, printable: bool = False) -> tuple[int, list[int]]:
    """``(den, nums)``: ``den > 0`` is the lcm of the denominators of the
    ints and ``Fraction``s in ``values``, and ``nums[i] / den == values[i]``.

    Sums and differences of the numerators have the signs of the same
    sums and differences of the values. With ``printable``, a ``den``
    that ``str`` could not print raises ``ValueError`` before any scaling.
    """
    if all(type(v) is int for v in values):
        return 1, list(values)
    dens = {v.denominator for v in values}
    den = math.lcm(*dens)
    if printable and too_long(den):
        raise ValueError(too_long_message("common denominator"))
    scale = {d: den // d for d in dens}
    return den, [v.numerator * scale[v.denominator] for v in values]


def too_long(n: int) -> bool:
    """Whether ``str(n)`` exceeds the int->str digit limit now in force
    (``sys.get_int_max_str_digits()``; 0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    # below 2**(3 * limit) = 8**limit an int has fewer than limit digits
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10**limit


def too_long_message(what: str = "a derived numerator or denominator") -> str:
    return f"{what} exceeds {sys.get_int_max_str_digits()} digits"


def cached(obj, name: str, build):
    """``build(obj)``, computed on the first call for ``obj`` and kept in
    its instance dict under ``name``, a ``_``-prefixed attribute name.

    The value lives outside the dataclass fields, so ``==``, ``hash`` and
    ``repr`` ignore it, and setting it works on a frozen instance.  A
    ``build`` that raises caches nothing.  Two threads that both make the
    first call may both build, and either value is kept, so ``build``
    must give equal values for one object.
    """
    try:
        return obj.__dict__[name]
    except KeyError:
        value = build(obj)
        object.__setattr__(obj, name, value)
        return value
